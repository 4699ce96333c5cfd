package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestInputsFollowSeed pins the seeded-input contract: the same seed
// gives a byte-identical input schedule and another seed a different one.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a, err := inputDigest(w, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			b, err := inputDigest(w, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			c, err := inputDigest(w, 8, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("seed 7 gave two schedules: %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 gave the same schedule %s", a)
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndCatalog)
	same("per_layer", spec.PerLayer, perLayerCatalog())
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", n)
		}
	}
}

func TestCovered(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 60, End: 60}}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10-40 and 90-100)", got)
	}
}
