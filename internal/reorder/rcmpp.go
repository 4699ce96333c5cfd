package reorder

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/sparse"
)

// rcmppMaxCandidates bounds how many last-level vertices the bi-criteria
// finder evaluates per iteration (the lowest-degree ones, ties broken by
// ascending ID). RCM++ shows a small candidate set already recovers most
// of the bandwidth win; the cap keeps the finder O(candidates · nnz).
const rcmppMaxCandidates = 8

// rcmppMaxIterations bounds the pseudo-peripheral iteration; in practice
// eccentricity stops growing after a handful of hops.
const rcmppMaxIterations = 16

// RCMPP implements RCM++ (arXiv 2409.04171): the RCM BFS of this package
// preceded by a bi-criteria starting-node finder. Instead of starting each
// component at its minimum-degree vertex, the finder runs a George–Liu
// pseudo-peripheral iteration whose candidate step evaluates the
// lowest-degree vertices of the last BFS level by BOTH criteria — maximize
// BFS height (level count), tie-break by minimizing width (largest level),
// then by minimum ID. Deeper, narrower level structures directly bound the
// resulting bandwidth, which plain min-degree starts often miss.
//
// The candidate evaluations are independent BFS traversals and run across
// Options.Workers goroutines; each candidate's (height, width) lands in
// its own slot and the winner is chosen by a sequential scan in candidate
// order, so the chosen start — and therefore the permutation — is
// byte-identical at every worker count.
type RCMPP struct{}

// Name implements Technique.
func (RCMPP) Name() string { return "RCM++" }

// Order implements Technique (the Workers=1 path).
func (r RCMPP) Order(m *sparse.CSR) sparse.Permutation {
	// A background context never cancels, so the error path is unreachable.
	p, _ := r.OrderParallelCtx(context.Background(), m, Options{})
	return check.Perm(p)
}

// OrderCtx implements OrdererCtx as the single-worker parallel path.
func (r RCMPP) OrderCtx(ctx context.Context, m *sparse.CSR) (sparse.Permutation, error) {
	p, err := r.OrderParallelCtx(ctx, m, Options{})
	if err != nil {
		return nil, err
	}
	return check.Perm(p), nil
}

// OrderParallelCtx implements ParallelOrderer.
func (RCMPP) OrderParallelCtx(ctx context.Context, m *sparse.CSR, opts Options) (sparse.Permutation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sym := m.Symmetrize()
	deg := sym.Degrees()
	// Components are still discovered lowest-degree-first so the output
	// component order matches RCM's; only the start within each component
	// changes.
	f := newStartFinder(sym, deg, opts.workers())
	p, err := cuthillMcKee(ctx, sym, deg, func(seed int32) (int32, error) { return f.find(ctx, seed) })
	if err != nil {
		return nil, err
	}
	return check.Perm(p), nil
}

// bfsShape summarizes one rooted BFS of a component: height is the number
// of levels, width the size of the largest level, last the final level's
// vertices in BFS order. err slots the cancellation error for ordered
// fan-in.
type bfsShape struct {
	height int32
	width  int32
	last   []int32
	err    error
}

// bfsScratch is one worker's traversal state, reused by every BFS the
// worker runs in one ordering: seen[v] == epoch marks v reached by the
// current traversal, so starting the next one only advances epoch.
type bfsScratch struct {
	seen  []int32
	epoch int32
	queue []int32
}

// measure runs a level-structured BFS from start. The returned last level
// aliases the scratch queue and is valid until the scratch's next
// traversal.
func (s *bfsScratch) measure(ctx context.Context, sym *sparse.CSR, start int32) bfsShape {
	if s.epoch == math.MaxInt32 {
		// Epochs run across components; restart them rather than wrap.
		clear(s.seen)
		s.epoch = 0
	}
	s.epoch++
	var out bfsShape
	queue := append(s.queue[:0], start)
	s.seen[start] = s.epoch
	for levelStart := 0; levelStart < len(queue); {
		levelEnd := len(queue)
		out.height++
		out.width = max(out.width, int32(levelEnd-levelStart))
		out.last = queue[levelStart:levelEnd]
		for i := levelStart; i < levelEnd; i++ {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return bfsShape{err: err}
				}
			}
			cols, _ := sym.Row(queue[i])
			for _, v := range cols {
				if s.seen[v] != s.epoch {
					s.seen[v] = s.epoch
					queue = append(queue, v)
				}
			}
		}
		levelStart = levelEnd
	}
	s.queue = queue
	return out
}

// startFinder is RCM++'s bi-criteria starting-node finder. It holds the
// scratch of one ordering: one bfsScratch per candidate-evaluation worker
// (the first also serves the sequential pseudo-peripheral iteration) and
// the candidate and shape buffers, so a component costs work in
// proportion to its own size, however many components the matrix has.
type startFinder struct {
	sym     *sparse.CSR
	deg     []int32
	scratch []bfsScratch
	cands   []int32
	shapes  []bfsShape
}

// newStartFinder allocates the finder's scratch for up to workers
// concurrent candidate evaluations (at most rcmppMaxCandidates run at
// once).
func newStartFinder(sym *sparse.CSR, deg []int32, workers int) *startFinder {
	f := &startFinder{
		sym:     sym,
		deg:     deg,
		scratch: make([]bfsScratch, min(workers, rcmppMaxCandidates)),
		shapes:  make([]bfsShape, rcmppMaxCandidates),
	}
	for i := range f.scratch {
		f.scratch[i].seen = make([]int32, sym.NumRows)
	}
	return f
}

// find runs the bi-criteria pseudo-peripheral iteration from seed and
// returns the chosen starting vertex for the component.
func (f *startFinder) find(ctx context.Context, seed int32) (int32, error) {
	cur := seed
	var curHeight int32 = -1
	for iter := 0; iter < rcmppMaxIterations; iter++ {
		shape := f.scratch[0].measure(ctx, f.sym, cur)
		if shape.err != nil {
			return 0, shape.err
		}
		if shape.height <= curHeight {
			break
		}
		curHeight = shape.height
		cands := f.candidates(shape.last)
		shapes, err := f.evaluate(ctx, cands)
		if err != nil {
			return 0, err
		}
		// Winner scan in candidate order: max height, then min width, then
		// min ID (candidates are ID-ascending, so strict improvement only).
		best := -1
		for i, s := range shapes {
			if best < 0 || s.height > shapes[best].height ||
				(s.height == shapes[best].height && s.width < shapes[best].width) {
				best = i
			}
		}
		if best < 0 || shapes[best].height <= curHeight {
			// No candidate is deeper than the current root: cur is already
			// pseudo-peripheral under the bi-criteria rule.
			break
		}
		cur = cands[best]
	}
	return cur, nil
}

// candidates picks the lowest-degree vertices of the last BFS level, ties
// broken by ascending ID, capped at rcmppMaxCandidates. The result is the
// finder's own buffer, so it outlives the scratch queue last aliases.
func (f *startFinder) candidates(last []int32) []int32 {
	cands := append(f.cands[:0], last...)
	slices.SortStableFunc(cands, func(a, b int32) int {
		if c := cmp.Compare(f.deg[a], f.deg[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	f.cands = cands
	return cands[:min(len(cands), rcmppMaxCandidates)]
}

// evaluate measures the BFS shape rooted at every candidate, fanning the
// traversals out over the scratch workers. Candidate i is handled by
// worker i%w and writes only shapes[i], so the fan-in is ordered.
func (f *startFinder) evaluate(ctx context.Context, cands []int32) ([]bfsShape, error) {
	shapes := f.shapes[:len(cands)]
	w := min(len(f.scratch), len(cands))
	if w <= 1 {
		for ci, c := range cands {
			shapes[ci] = f.scratch[0].measure(ctx, f.sym, c)
		}
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(s *bfsScratch) {
				defer wg.Done()
				for ci := wi; ci < len(cands); ci += w {
					shapes[ci] = s.measure(ctx, f.sym, cands[ci])
				}
			}(&f.scratch[wi])
		}
		wg.Wait()
	}
	for _, s := range shapes {
		if s.err != nil {
			return nil, s.err
		}
	}
	return shapes, nil
}
