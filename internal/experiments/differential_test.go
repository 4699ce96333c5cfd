package experiments

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/gpumodel"
	"repro/internal/reorder"
)

// diffKernels is every kernel the paper evaluates (Table IV's set).
var diffKernels = []gpumodel.Kernel{
	{Kind: gpumodel.SpMVCSR},
	{Kind: gpumodel.SpMVCOO},
	{Kind: gpumodel.SpMMCSR, K: 4},
	{Kind: gpumodel.SpMMCSR, K: 256},
}

// TestDifferentialFastVsReference is the corpus-scale differential check:
// on every generated corpus matrix × every kernel, the fast simulator path
// (arena LRU, streaming Belady) must produce bit-identical Stats to the
// seed reference implementation, for both LRU and Belady-optimal
// replacement. This is the proof that switching the experiment suite's
// default to the fast path changed no reported number; scripts/check.sh
// runs it as the pre-merge differential gate.
func TestDifferentialFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full corpus four ways; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("single-goroutine bulk simulation; race instrumentation only risks the timeout")
	}
	r := NewRunner(SmallConfig())
	l2 := r.Config().Device.L2
	// Matrices are independent, so they run as parallel subtests (at most
	// GOMAXPROCS at a time) over the Runner's concurrency-safe caches.
	for _, e := range r.Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			md, err := r.Matrix(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range diffKernels {
				tr := r.traceFor(md, reorder.Original{}, k)
				hint := k.TraceAccessUpperBound(md.N, md.NNZ, l2.LineBytes)

				lruRef := cachesim.SimulateLRUWith(l2, cachesim.ImplReference, tr)
				lruFast := cachesim.SimulateLRUWith(l2, cachesim.ImplFast, tr)
				if lruRef != lruFast {
					t.Errorf("%s %s LRU diverged:\nreference %+v\nfast      %+v",
						e.Name, k.String(), lruRef, lruFast)
				}

				optRef := cachesim.SimulateBeladyFunc(l2, cachesim.ImplReference, tr, hint)
				optFast := cachesim.SimulateBeladyFunc(l2, cachesim.ImplFast, tr, hint)
				if optRef != optFast {
					t.Errorf("%s %s Belady diverged:\nreference %+v\nfast      %+v",
						e.Name, k.String(), optRef, optFast)
				}
			}
		})
	}
}

// TestDifferentialReorderedTraces covers the reordered access patterns the
// corpus test's ORIGINAL ordering cannot: RABBIT and RANDOM permutations
// concentrate and scatter the irregular operand respectively, stressing
// set-conflict behaviour from both directions. The structurally diverse
// test subset keeps this cheap.
func TestDifferentialReorderedTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	r := testRunner(t)
	l2 := r.Config().Device.L2
	k := SpMV
	for _, name := range subset {
		md, err := r.Matrix(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range []reorder.Technique{reorder.Rabbit{}, reorder.Random{}} {
			tr := r.traceFor(md, tech, k)
			hint := k.TraceAccessUpperBound(md.N, md.NNZ, l2.LineBytes)
			lruRef := cachesim.SimulateLRUWith(l2, cachesim.ImplReference, tr)
			lruFast := cachesim.SimulateLRUWith(l2, cachesim.ImplFast, tr)
			if lruRef != lruFast {
				t.Errorf("%s %s LRU diverged under %s:\nreference %+v\nfast      %+v",
					name, k.String(), tech.Name(), lruRef, lruFast)
			}
			optRef := cachesim.SimulateBeladyFunc(l2, cachesim.ImplReference, tr, hint)
			optFast := cachesim.SimulateBeladyFunc(l2, cachesim.ImplFast, tr, hint)
			if optRef != optFast {
				t.Errorf("%s %s Belady diverged under %s:\nreference %+v\nfast      %+v",
					name, k.String(), tech.Name(), optRef, optFast)
			}
		}
	}
}

// TestRunnerImplReferenceMatchesFast runs one figure's worth of cached
// simulations through two Runners differing only in Config.Impl and
// asserts identical normalized traffic — the end-to-end guarantee behind
// cmd/experiments -impl=reference.
func TestRunnerImplReferenceMatchesFast(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	names := []string{"soc-tight-2", "er-deg16"}
	mk := func(impl cachesim.Impl) *Runner {
		cfg := SmallConfig()
		cfg.Matrices = names
		cfg.Impl = impl
		return NewRunner(cfg)
	}
	fast, ref := mk(cachesim.ImplFast), mk(cachesim.ImplReference)
	for _, name := range names {
		mdF, err := fast.Matrix(name)
		if err != nil {
			t.Fatal(err)
		}
		mdR, err := ref.Matrix(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range []reorder.Technique{reorder.Original{}, reorder.Rabbit{}} {
			if f, r := fast.SimLRU(mdF, tech, SpMV), ref.SimLRU(mdR, tech, SpMV); f != r {
				t.Errorf("%s %s SimLRU: fast %+v != reference %+v", name, tech.Name(), f, r)
			}
			if f, r := fast.SimBelady(mdF, tech, SpMV), ref.SimBelady(mdR, tech, SpMV); f != r {
				t.Errorf("%s %s SimBelady: fast %+v != reference %+v", name, tech.Name(), f, r)
			}
		}
	}
}
