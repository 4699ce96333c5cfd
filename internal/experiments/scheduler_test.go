package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpumodel"
	"repro/internal/reorder"
)

func TestUnitBuilders(t *testing.T) {
	r := testRunner(t, "er-deg16", "cfd-2d-5pt")
	entries := r.Entries()
	techs := []reorder.Technique{reorder.Original{}, reorder.Rabbit{}}
	kernels := []gpumodel.Kernel{SpMV, {Kind: gpumodel.SpMVCOO}}

	if got := len(StatsUnits(entries)); got != 2 {
		t.Fatalf("StatsUnits = %d units, want 2", got)
	}
	if got := len(PermUnits(entries, techs)); got != 4 {
		t.Fatalf("PermUnits = %d units, want 4", got)
	}
	if got := len(SimUnits(entries, techs, kernels...)); got != 8 {
		t.Fatalf("SimUnits = %d units, want 8", got)
	}
	if got := len(BeladyUnits(entries, techs, SpMV)); got != 4 {
		t.Fatalf("BeladyUnits = %d units, want 4", got)
	}
}

func TestPrefetchUnknownMatrix(t *testing.T) {
	r := testRunner(t, "er-deg16")
	err := r.Prefetch([]Unit{{Kind: UnitStats, Matrix: "no-such-matrix"}})
	if err == nil {
		t.Fatal("Prefetch accepted an unknown matrix")
	}
}

// TestNewRunnerRejectsUnknownMatrix pins that a misspelled Config.Matrices
// name stops a library caller too: NewRunner panics naming the first
// unknown name instead of running a smaller corpus. An untrimmed name is
// not a corpus entry either.
func TestNewRunnerRejectsUnknownMatrix(t *testing.T) {
	for _, c := range []struct {
		names []string
		bad   string
	}{
		{[]string{"er-deg16", "typo", "soc-tight-2", "typo2"}, "typo"},
		{[]string{"er-deg16", " soc-tight-2"}, " soc-tight-2"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprintf("%q", c.bad)) {
					t.Errorf("NewRunner(Matrices: %q) recovered %q, want a panic naming %q", c.names, msg, c.bad)
				}
			}()
			cfg := SmallConfig()
			cfg.Matrices = c.names
			NewRunner(cfg)
		}()
	}
}

func TestWorkersDefaultAndOverride(t *testing.T) {
	cfg := SmallConfig()
	if w := NewRunner(cfg).Workers(); w < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", w)
	}
	cfg.Workers = 3
	if w := NewRunner(cfg).Workers(); w != 3 {
		t.Fatalf("Workers() = %d, want 3", w)
	}
}

// TestSchedulerExactlyOnce is the scheduler stress test: it runs a set of
// figures — with heavily overlapping (matrix, technique, kernel) needs —
// concurrently from multiple goroutines, twice each, against one Runner,
// and then asserts via the Runner's instrumented execution counter that
// every generation, permutation, and simulation ran exactly once. Under
// -race this also exercises the per-key in-flight tracking and the cache
// mutex discipline end to end.
func TestSchedulerExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments concurrently; skipped in -short")
	}
	cfg := SmallConfig()
	cfg.Matrices = []string{"er-deg16", "cfd-2d-5pt"}
	cfg.Workers = 4
	r := NewRunner(cfg)

	ids := []string{"fig2", "fig3", "fig7", "table2", "table3", "obs", "fig8"}
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(ids))
	for round := 0; round < rounds; round++ {
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e Experiment) {
				defer wg.Done()
				if _, err := e.Run(r); err != nil {
					errs <- err
				}
			}(e)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	counts := r.UnitCounts()
	var lru, belady, perms int
	for key, n := range counts {
		if n != 1 {
			t.Errorf("unit %s executed %d times, want exactly 1", key, n)
		}
		switch {
		case strings.HasPrefix(key, "lru|"):
			lru++
		case strings.HasPrefix(key, "belady|"):
			belady++
		case strings.HasPrefix(key, "perm|"):
			perms++
		}
	}
	// Sanity-check that the counter saw the real workload: 2 matrices × 6
	// Figure-2 techniques (+ RABBIT++ and the Table II variants) of LRU
	// work, and 2 × 7 Belady combinations from Figure 8.
	if lru < 2*7 {
		t.Errorf("only %d distinct LRU simulations recorded; dedup test is vacuous", lru)
	}
	if belady != 2*7 {
		t.Errorf("%d distinct Belady simulations recorded, want 14", belady)
	}
	if perms == 0 {
		t.Error("no permutations recorded")
	}
}

// TestPrefetchInlineBypass proves the workers=1 path never touches the
// worker pool: with the runner's only pool slot already held, the pool
// path would block forever, so completion within the timeout means the
// scheduler executed the units inline. It also checks the bypass keeps
// the deterministic first-error contract of the pool path.
func TestPrefetchInlineBypass(t *testing.T) {
	cfg := SmallConfig()
	cfg.Matrices = []string{"er-deg16"}
	cfg.Workers = 1
	r := NewRunner(cfg)
	r.sem <- struct{}{} // occupy the only slot; inline execution must not need it
	defer func() { <-r.sem }()

	done := make(chan error, 1)
	go func() {
		done <- r.Prefetch(StatsUnits(r.Entries()))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("inline Prefetch: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Prefetch blocked on the worker pool despite workers=1")
	}

	// First error in unit order, matching the pool path's contract.
	units := []Unit{
		{Kind: UnitStats, Matrix: "no-such-a"},
		{Kind: UnitStats, Matrix: "no-such-b"},
	}
	err := r.Prefetch(units)
	if err == nil || !strings.Contains(err.Error(), "no-such-a") {
		t.Fatalf("inline Prefetch error = %v, want the first unit's (no-such-a)", err)
	}

	// forNames shares the bypass; run it with the slot still held too.
	go func() {
		_, err := forNames(r, []string{"er-deg16"}, func(md *MatrixData) (int64, error) {
			return md.NNZ, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("inline forNames: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("forNames blocked on the worker pool despite workers=1")
	}
}

// BenchmarkSerialPathOverhead isolates scheduler dispatch cost: with all
// caches warm, every unit is a pure lookup, so the gap between a bare
// loop over runUnit and Prefetch on a workers=1 runner is the bypass's
// own overhead. scripts/bench.sh records the ratio in
// BENCH_experiments.json; the budget is <5%.
func BenchmarkSerialPathOverhead(b *testing.B) {
	cfg := SmallConfig()
	cfg.Matrices = []string{"er-deg16", "cfd-2d-5pt"}
	cfg.Workers = 1
	r := NewRunner(cfg)
	techs := []reorder.Technique{reorder.Original{}, reorder.Rabbit{}}
	units := SimUnits(r.Entries(), techs, SpMV)
	if err := r.Prefetch(units); err != nil {
		b.Fatal(err)
	}
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range units {
				if err := r.runUnit(u); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("prefetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := r.Prefetch(units); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParallelMatchesSerial recomputes one figure's numbers on two fresh
// runners — serial and maximally parallel — and requires cell-identical
// tables, the in-process counterpart of the golden-file checks.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig2 twice; skipped in -short")
	}
	render := func(workers int) [][]string {
		cfg := SmallConfig()
		cfg.Matrices = []string{"er-deg16", "mawi-like"}
		cfg.Workers = workers
		tb, err := Fig2(NewRunner(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	serial, parallel := render(1), render(8)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if strings.Join(serial[i], "|") != strings.Join(parallel[i], "|") {
			t.Fatalf("row %d differs:\nserial:   %v\nparallel: %v", i, serial[i], parallel[i])
		}
	}
}
