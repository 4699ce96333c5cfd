package experiments

import (
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/gpumodel"
	"repro/internal/reorder"
)

// spgemmSubset is the cheap slice of the corpus the SpGEMM tests sweep:
// a mesh, a sparse hub graph, and a mid-density random graph. mawi-like
// is included where the flop budget's exclusion behaviour is the thing
// under test.
var spgemmSubset = []string{"cfd-2d-5pt", "wiki-talk-like", "er-deg16"}

func TestSpGEMMInfoCachedAndPlausible(t *testing.T) {
	r := testRunner(t, "er-deg16")
	md, err := r.Matrix("er-deg16")
	if err != nil {
		t.Fatal(err)
	}
	info := md.SpGEMMInfo()
	if info.Flops < md.NNZ || info.NNZC <= 0 || int64(len(info.RowNNZ)) != md.N {
		t.Fatalf("implausible symbolic info: %+v", info)
	}
	again := md.SpGEMMInfo()
	if &info.RowNNZ[0] != &again.RowNNZ[0] {
		t.Fatal("SpGEMMInfo not cached")
	}
	k := md.SpGEMMKernel(false)
	if k.Kind != gpumodel.SpGEMMCSR || k.Work.Flops != info.Flops || k.Work.NNZC != info.NNZC || k.Work.NNZB != md.NNZ {
		t.Fatalf("SpGEMMKernel work mismatch: %+v", k)
	}
	if kc := md.SpGEMMKernel(true); kc.Kind != gpumodel.SpGEMMCSRCluster {
		t.Fatalf("cluster kernel kind = %v", kc.Kind)
	}
}

// TestSpGEMMTableSweepsRegistryAndBudget runs the generality sweep on a
// subset that includes the flop-pathological mawi-like: every registered
// technique must get a row, and the star graph must be excluded by the
// flop budget (its near-dense product would otherwise dominate the whole
// suite's run time).
func TestSpGEMMTableSweepsRegistryAndBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the full registry; skipped in -short")
	}
	r := testRunner(t, "cfd-2d-5pt", "wiki-talk-like", "mawi-like")
	tb, err := SpGEMMTable(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(TableIVTechniques()); len(tb.Rows) != want {
		t.Fatalf("SpGEMM table has %d rows, want one per registered technique (%d)", len(tb.Rows), want)
	}
	var noted bool
	for _, n := range tb.Notes {
		if strings.Contains(n, "mawi-like") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("flop budget did not report skipping mawi-like; notes: %v", tb.Notes)
	}
	md, err := r.Matrix("mawi-like")
	if err != nil {
		t.Fatal(err)
	}
	if spgemmWithinBudget(md) {
		t.Fatal("mawi-like unexpectedly within the flop budget")
	}
}

// TestDifferentialSpGEMM extends the fast-vs-reference simulator gate to
// the SpGEMM reference streams: on each subset matrix and both execution
// modes, the fast LRU/Belady paths must produce bit-identical Stats to the
// seed implementations. scripts/check.sh runs this with the other
// differential gates.
func TestDifferentialSpGEMM(t *testing.T) {
	if testing.Short() {
		t.Skip("records full SpGEMM traces; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("single-goroutine bulk simulation; race instrumentation only risks the timeout")
	}
	r := testRunner(t, spgemmSubset...)
	l2 := r.Config().Device.L2
	for _, name := range spgemmSubset {
		md, err := r.Matrix(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cluster := range []bool{false, true} {
			k := md.SpGEMMKernel(cluster)
			tr := r.traceFor(md, reorder.Original{}, k)

			lruRef := cachesim.SimulateLRUWith(l2, cachesim.ImplReference, tr)
			lruFast := cachesim.SimulateLRUWith(l2, cachesim.ImplFast, tr)
			if lruRef != lruFast {
				t.Errorf("%s %s LRU diverged:\nreference %+v\nfast      %+v", name, k.String(), lruRef, lruFast)
			}

			optRef := cachesim.SimulateBeladyFunc(l2, cachesim.ImplReference, tr)
			optFast := cachesim.SimulateBeladyFunc(l2, cachesim.ImplFast, tr)
			if optRef != optFast {
				t.Errorf("%s %s Belady diverged:\nreference %+v\nfast      %+v", name, k.String(), optRef, optFast)
			}
			if optRef.Misses > lruRef.Misses {
				t.Errorf("%s %s: Belady misses %d exceed LRU %d", name, k.String(), optRef.Misses, lruRef.Misses)
			}
		}
	}
}

// TestSpGEMMClusterBeatsRowWiseOnCommunityGraph is the end-to-end
// phenomenon check: on a community-structured graph under RABBIT ordering,
// cluster-wise execution must strictly reduce simulated traffic relative
// to row-wise — the cooperation between reordering and schedule the
// ablation quantifies.
func TestSpGEMMClusterBeatsRowWiseOnCommunityGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("two SpGEMM simulations; skipped in -short")
	}
	r := testRunner(t, "soc-tight-2")
	md, err := r.Matrix("soc-tight-2")
	if err != nil {
		t.Fatal(err)
	}
	row := r.SimLRU(md, reorder.Rabbit{}, gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR})
	clu := r.SimLRU(md, reorder.Rabbit{}, gpumodel.Kernel{Kind: gpumodel.SpGEMMCSRCluster})
	if clu.TrafficBytes() >= row.TrafficBytes() {
		t.Fatalf("cluster-wise traffic %d not below row-wise %d", clu.TrafficBytes(), row.TrafficBytes())
	}
}
