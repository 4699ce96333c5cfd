package reorder

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// workerCounts are the parallelism levels the determinism matrix sweeps:
// the sequential reference, two fixed multi-worker levels (meaningful even
// on a single-CPU host, since goroutines interleave), and whatever this
// host's NumCPU is, deduplicated.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	ncpu := runtime.NumCPU()
	for _, c := range counts {
		if c == ncpu {
			return counts
		}
	}
	return append(counts, ncpu)
}

// determinismMatrices is the worker-matrix corpus: every pathological
// shape plus a matrix large enough (1200 rows > several 256-row shards)
// that the sharded and chunked code paths actually split work.
func determinismMatrices() map[string]*sparse.CSR {
	ms := pathologicalMatrices()
	ms["hubby-1200"] = testMatrix(1)
	return ms
}

// TestWorkerCountDeterminismMatrix is the lockdown for the parallel tier:
// every registered technique (plus the combinators) over every corpus
// matrix must produce byte-identical permutations at workers = 1, 2, 4,
// and NumCPU. Techniques outside the parallel tier go through the same
// OrderWith dispatch, pinning that the options plumbing never perturbs
// the sequential paths either.
func TestWorkerCountDeterminismMatrix(t *testing.T) {
	counts := workerCounts()
	for name, m := range determinismMatrices() {
		for _, tech := range propertyTechniques() {
			ref, err := OrderWith(context.Background(), WithContext(tech), m, Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", tech.Name(), name, err)
			}
			for _, w := range counts[1:] {
				p, err := OrderWith(context.Background(), WithContext(tech), m, Options{Workers: w})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tech.Name(), name, w, err)
				}
				if len(p) != len(ref) {
					t.Fatalf("%s/%s workers=%d: length %d, want %d", tech.Name(), name, w, len(p), len(ref))
				}
				for i := range p {
					if p[i] != ref[i] {
						t.Fatalf("%s/%s: workers=%d diverges from workers=1 at vertex %d: %d vs %d",
							tech.Name(), name, w, i, p[i], ref[i])
					}
				}
			}
		}
	}
}

// parallelTechniques returns the registry members that implement
// ParallelOrderer.
func parallelTechniques() []ParallelOrderer {
	var out []ParallelOrderer
	for _, tech := range All() {
		if po, ok := tech.(ParallelOrderer); ok {
			out = append(out, po)
		}
	}
	return out
}

// TestParallelTierRegistered pins that the parallel tier is present in the
// registry: BOBA, RCM++, and RABBIT-SHARD all implement ParallelOrderer.
func TestParallelTierRegistered(t *testing.T) {
	want := map[string]bool{"BOBA": false, "RCM++": false, "RABBIT-SHARD": false}
	for _, po := range parallelTechniques() {
		if _, ok := want[po.Name()]; ok {
			want[po.Name()] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("registered technique %s does not implement ParallelOrderer", name)
		}
	}
}

// TestOrderParallelCtxMatchesOrder verifies the OrdererCtx contract on the
// parallel entry point: at full parallelism with a live context the result
// is byte-identical to the plain Order path.
func TestOrderParallelCtxMatchesOrder(t *testing.T) {
	m := testMatrix(7)
	for _, po := range parallelTechniques() {
		ref := po.(Technique).Order(m)
		p, err := po.OrderParallelCtx(context.Background(), m, Options{Workers: runtime.NumCPU() + 3})
		if err != nil {
			t.Fatalf("%s: %v", po.Name(), err)
		}
		for i := range p {
			if p[i] != ref[i] {
				t.Fatalf("%s: OrderParallelCtx diverges from Order at vertex %d", po.Name(), i)
			}
		}
	}
}

// TestOrderParallelCtxCancelledBeforeStart verifies prompt cancellation:
// a pre-cancelled context returns (nil, ctx.Err()) without computing.
func TestOrderParallelCtxCancelledBeforeStart(t *testing.T) {
	m := testMatrix(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, po := range parallelTechniques() {
		p, err := po.OrderParallelCtx(ctx, m, Options{Workers: 4})
		if err != context.Canceled {
			t.Errorf("%s: error = %v, want context.Canceled", po.Name(), err)
		}
		if p != nil {
			t.Errorf("%s: got a permutation from a cancelled context", po.Name())
		}
	}
}

// TestOrderWithDispatch pins the dispatch rule: parallel techniques route
// through OrderParallelCtx, everything else through the cancellable
// sequential path, and both agree with the technique's plain Order.
func TestOrderWithDispatch(t *testing.T) {
	m := testMatrix(3)
	for _, tech := range []Technique{DegSort{}, Boba{}} {
		ref := tech.Order(m)
		p, err := OrderWith(context.Background(), WithContext(tech), m, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", tech.Name(), err)
		}
		for i := range p {
			if p[i] != ref[i] {
				t.Fatalf("%s: OrderWith diverges from Order at vertex %d", tech.Name(), i)
			}
		}
	}
}
