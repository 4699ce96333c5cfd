package experiments

import (
	"sync"

	"repro/internal/gen"
	"repro/internal/gpumodel"
	"repro/internal/reorder"
)

// The scheduler turns each figure's nested matrix/technique/kernel loops
// into independent units executed by a bounded worker pool shared across
// the whole Runner. Every unit's result lives in the Runner's memo under
// its unit key, so concurrent figures (or repeated prefetches) never
// redo a generation, reordering, or simulation; each figure then
// aggregates in corpus order against the warm memo, keeping its table
// byte-identical to the serial run regardless of completion order.

// UnitKind selects how much of the pipeline a Unit warms.
type UnitKind int

const (
	// UnitStats generates the matrix and runs community detection.
	UnitStats UnitKind = iota
	// UnitPerm additionally computes the technique's permutation.
	UnitPerm
	// UnitSimLRU additionally simulates the kernel through the LRU L2.
	UnitSimLRU
	// UnitSimBelady simulates the kernel under Belady-optimal replacement.
	UnitSimBelady
	// UnitSimMulti simulates the kernel on Devices private caches split by
	// the Part partitioner (multidev.Simulate).
	UnitSimMulti
)

// Unit is one schedulable piece of work: a point in the
// (matrix × technique × kernel) space a figure needs.
type Unit struct {
	// Kind selects how deep the unit drives the pipeline.
	Kind UnitKind
	// Matrix names the corpus entry the unit operates on.
	Matrix string
	Tech   reorder.Technique // nil for UnitStats
	Kernel gpumodel.Kernel   // zero value for UnitStats/UnitPerm
	// Devices is the device count of a UnitSimMulti unit (zero for every
	// other kind).
	Devices int
	// Part names the UnitSimMulti partitioner (empty for every other kind).
	Part string
}

// StatsUnits covers matrix generation plus community detection for every
// entry — what the statistics-only figures (Correlations, Figure 4) need.
func StatsUnits(entries []gen.Entry) []Unit {
	units := make([]Unit, 0, len(entries))
	for _, e := range entries {
		units = append(units, Unit{Kind: UnitStats, Matrix: e.Name})
	}
	return units
}

// PermUnits crosses the entries with the techniques at permutation depth.
func PermUnits(entries []gen.Entry, techs []reorder.Technique) []Unit {
	units := make([]Unit, 0, len(entries)*len(techs))
	for _, e := range entries {
		for _, t := range techs {
			units = append(units, Unit{Kind: UnitPerm, Matrix: e.Name, Tech: t})
		}
	}
	return units
}

// SimUnits crosses the entries with the techniques and kernels at LRU
// simulation depth — the bulk of every figure's work.
func SimUnits(entries []gen.Entry, techs []reorder.Technique, kernels ...gpumodel.Kernel) []Unit {
	units := make([]Unit, 0, len(entries)*len(techs)*len(kernels))
	for _, e := range entries {
		for _, t := range techs {
			for _, k := range kernels {
				units = append(units, Unit{Kind: UnitSimLRU, Matrix: e.Name, Tech: t, Kernel: k})
			}
		}
	}
	return units
}

// BeladyUnits is SimUnits under Belady-optimal replacement (Figure 8).
func BeladyUnits(entries []gen.Entry, techs []reorder.Technique, kernels ...gpumodel.Kernel) []Unit {
	units := make([]Unit, 0, len(entries)*len(techs)*len(kernels))
	for _, e := range entries {
		for _, t := range techs {
			for _, k := range kernels {
				units = append(units, Unit{Kind: UnitSimBelady, Matrix: e.Name, Tech: t, Kernel: k})
			}
		}
	}
	return units
}

// MultiDevUnits crosses the entries with the techniques, device counts,
// and kernels at multi-device simulation depth, all split by the same
// partitioner.
func MultiDevUnits(entries []gen.Entry, techs []reorder.Technique, devices []int, part string, kernels ...gpumodel.Kernel) []Unit {
	units := make([]Unit, 0, len(entries)*len(techs)*len(devices)*len(kernels))
	for _, e := range entries {
		for _, t := range techs {
			for _, d := range devices {
				for _, k := range kernels {
					units = append(units, Unit{Kind: UnitSimMulti, Matrix: e.Name, Tech: t, Kernel: k, Devices: d, Part: part})
				}
			}
		}
	}
	return units
}

// Prefetch executes the units on the Runner's worker pool and blocks
// until all complete, returning the first error in unit order. Work
// already cached or in flight (submitted by a concurrent figure) is not
// redone. After a successful Prefetch, reading the same units through
// Matrix/Perm/SimLRU/SimBelady/SimMultiDev is a pure cache hit, so callers
// can aggregate serially in corpus order at no cost.
func (r *Runner) Prefetch(units []Unit) error {
	return r.fanOut(len(units), func(i int) error { return r.runUnit(units[i]) })
}

// runUnit drives one unit through the memoized accessors; concurrent
// identical units share one execution inside them.
func (r *Runner) runUnit(u Unit) error {
	md, err := r.Matrix(u.Matrix)
	if err != nil {
		return err
	}
	switch u.Kind {
	case UnitStats:
		md.Stats()
	case UnitPerm:
		r.Perm(md, u.Tech)
	case UnitSimLRU:
		r.SimLRU(md, u.Tech, u.Kernel)
	case UnitSimBelady:
		r.SimBelady(md, u.Tech, u.Kernel)
	case UnitSimMulti:
		r.SimMultiDev(md, u.Tech, u.Kernel, u.Devices, u.Part)
	}
	return nil
}

// forNames runs fn over the named matrices on the worker pool and returns
// the per-matrix results indexed in input order, regardless of completion
// order. fn may call any Runner accessor but must not call Prefetch,
// forNames, or forEntries (pool slots do not nest).
func forNames[T any](r *Runner, names []string, fn func(md *MatrixData) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	err := r.fanOut(len(names), func(i int) error {
		md, err := r.Matrix(names[i])
		if err != nil {
			return err
		}
		out[i], err = fn(md)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEntries is forNames over the runner's whole corpus subset, in corpus
// order.
func forEntries[T any](r *Runner, fn func(md *MatrixData) (T, error)) ([]T, error) {
	entries := r.Entries()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return forNames(r, names, fn)
}

// fanOut runs fn(0) … fn(n-1), each holding one worker-pool slot, and
// returns the first error in index order, not completion order: the same
// failing corpus reports the same error no matter how the pool
// interleaves. A one-worker Runner runs them inline instead: one worker
// gains nothing from the pool, and on a single-CPU host the goroutine +
// channel hops per call cost real time (BenchmarkSerialPathOverhead
// measures the bypass against a bare loop).
func (r *Runner) fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	if r.Workers() == 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			r.sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-r.sem }()
				errs[i] = fn(i)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// memo caches one result per unit key. Each key has its own sync.Once,
// so a fill runs exactly once however many goroutines ask for the key:
// later callers wait for that run and read its result, while callers of
// different keys never wait on each other.
type memo struct {
	mu    sync.Mutex
	cells map[string]*memoCell
}

type memoCell struct {
	once sync.Once
	val  any
}

// memoize returns the result cached under key, running fill on first use.
func memoize[T any](m *memo, key string, fill func() T) T {
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		c = new(memoCell)
		m.cells[key] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.val = fill() })
	return c.val.(T)
}
