// Package experiments regenerates every table and figure of the paper's
// evaluation: Figure 2 (traffic across orderings), Figure 3 (run time vs
// insularity), the Section V-B correlations, Figure 4 (insular nodes),
// Figure 6 (insular sub-matrix traffic), Table II (design space), Figure 7
// (RABBIT++ traffic reduction), Table III (dead lines), Figure 8 (Belady
// headroom), Figure 9 (reordering cost), and Table IV (other kernels).
//
// A Runner lazily generates each corpus matrix once and caches the
// expensive intermediates (RABBIT's detection, permutations, cache
// simulations) so the full suite shares work across experiments. The
// scheduler (scheduler.go) fans the (matrix × technique × kernel) units
// each figure needs across a bounded worker pool; one memo holds every
// unit's result under its unit key with one sync.Once per key, so the
// units execute exactly once no matter how many figures request them
// concurrently, and each figure aggregates its table serially in corpus
// order from the warm memo.
//
//repro:deterministic
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/check"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gpumodel"
	"repro/internal/kernels"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Config selects the corpus scale, the simulated device, and an optional
// matrix subset.
type Config struct {
	// Preset selects the synthetic corpus scale (gen.Small or gen.Full).
	Preset gen.Preset
	// Device is the simulated accelerator whose cache geometry and
	// bandwidth model the experiments target.
	Device gpumodel.Device
	// Matrices restricts the corpus to the named entries; nil runs all 50.
	// Every name must be a corpus entry (NewRunner panics otherwise).
	Matrices []string
	// Progress, when non-nil, receives one line per completed unit of
	// work. Writes are serialized by the Runner.
	Progress io.Writer
	// Workers bounds how many scheduler units run concurrently.
	// 0 means runtime.NumCPU(); 1 reproduces the serial behaviour.
	Workers int
	// Impl selects the cache-simulator implementation. The zero value is
	// the fast path (arena LRU, streaming Belady); ImplReference runs the
	// seed implementation for differential checks (cmd/experiments
	// -impl=reference). Both produce bit-identical Stats.
	Impl cachesim.Impl
}

// SmallConfig pairs the Small corpus preset with the matching scaled
// device; tests and benchmarks use it.
func SmallConfig() Config {
	return Config{Preset: gen.Small, Device: gpumodel.SimDeviceSmall()}
}

// FullConfig pairs the Full corpus preset with the matching device;
// cmd/experiments uses it.
func FullConfig() Config {
	return Config{Preset: gen.Full, Device: gpumodel.SimDevice()}
}

// InsularityThreshold splits the corpus into the paper's two classes:
// RABBIT reaches near-ideal performance above it (Figure 3).
const InsularityThreshold = 0.95

// MatrixData bundles one corpus matrix with its cached intermediates.
type MatrixData struct {
	// Entry is the corpus entry this matrix was generated from (only its
	// Name is set for a matrix registered through Runner.Add).
	Entry gen.Entry
	// M is the generated matrix in CSR form.
	M *sparse.CSR
	// N is the matrix dimension (square, so rows == cols).
	N int64
	// NNZ is the number of stored nonzeros.
	NNZ int64

	once   sync.Once
	rabbit *core.RabbitResult
	stats  core.CommunityStats

	// spgemmOnce guards the symbolic SpGEMM analysis of M·M; see
	// SpGEMMInfo in spgemm.go.
	spgemmOnce sync.Once
	spgemm     kernels.SpGEMMInfo
}

func newMatrixData(entry gen.Entry, m *sparse.CSR) *MatrixData {
	return &MatrixData{Entry: entry, M: m, N: int64(m.NumRows), NNZ: int64(m.NNZ())}
}

// Rabbit returns the cached RABBIT detection result.
func (md *MatrixData) Rabbit() *core.RabbitResult {
	md.once.Do(func() {
		md.rabbit = core.Rabbit(md.M)
		md.stats = core.Analyze(md.M, md.rabbit.Communities)
	})
	return md.rabbit
}

// Stats returns the community-quality statistics of the RABBIT detection.
func (md *MatrixData) Stats() core.CommunityStats {
	md.Rabbit()
	return md.stats
}

// HighInsularity reports whether the matrix falls in the paper's
// insularity ≥ 0.95 class.
func (md *MatrixData) HighInsularity() bool {
	return md.Stats().Insularity >= InsularityThreshold
}

// Runner owns the corpus, its caches, and the worker pool.
type Runner struct {
	cfg Config
	// sem is the bounded worker pool: every scheduler unit holds one
	// slot while it runs. Unit bodies never re-acquire, so the pool
	// cannot deadlock on itself.
	sem chan struct{}
	// memo holds every unit's result under its UnitCounts key: matrices,
	// permutations, and the LRU, Belady and multi-device simulations.
	memo memo

	progressMu sync.Mutex

	countMu    sync.Mutex
	unitCounts map[string]int
}

// NewRunner builds a Runner over the configured corpus subset. It panics
// naming the first cfg.Matrices name that is not a corpus entry, so a
// typo never runs a smaller corpus; the CLIs reject one earlier, with an
// error, through gen.ParseMatrices.
func NewRunner(cfg Config) *Runner {
	for _, name := range cfg.Matrices {
		if _, err := gen.ByName(name); err != nil {
			panic(fmt.Sprintf("experiments: Config.Matrices: %v", err))
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{
		cfg:        cfg,
		sem:        make(chan struct{}, workers),
		memo:       memo{cells: make(map[string]*memoCell)},
		unitCounts: make(map[string]int),
	}
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// Workers returns the size of the runner's worker pool.
func (r *Runner) Workers() int { return cap(r.sem) }

// Entries returns the corpus entries this runner covers, in corpus order.
func (r *Runner) Entries() []gen.Entry {
	all := gen.Corpus()
	if r.cfg.Matrices == nil {
		return all
	}
	want := make(map[string]bool, len(r.cfg.Matrices))
	for _, n := range r.cfg.Matrices {
		want[n] = true
	}
	var out []gen.Entry
	for _, e := range all {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

// matrixCell is the memo's value for a "matrix|" key: an unknown name
// caches its error like any other result.
type matrixCell struct {
	md  *MatrixData
	err error
}

// Matrix returns the matrix Add registered under name, or generates the
// named corpus matrix on first use. Concurrent callers of the same name
// share one generation.
func (r *Runner) Matrix(name string) (*MatrixData, error) {
	key := "matrix|" + name
	c := memoize(&r.memo, key, func() matrixCell {
		entry, err := gen.ByName(name)
		if err != nil {
			return matrixCell{err: err}
		}
		md := newMatrixData(entry, entry.Generate(r.cfg.Preset))
		r.ran(key, "generated %-24s %8d rows %10d nnz", name, md.N, md.NNZ)
		return matrixCell{md: md}
	})
	return c.md, c.err
}

// Add registers m, which must be square, under name, so that Matrix,
// Prefetch and every simulation run on a matrix the corpus does not
// generate (cmd/cachesim's input). Its units run and count like a
// corpus matrix's; the registration itself counts no unit. Call Add
// before any other use of name: a name already cached keeps what it
// holds.
func (r *Runner) Add(name string, m *sparse.CSR) *MatrixData {
	if !m.IsSquare() {
		panic(fmt.Sprintf("experiments: Add(%q): %v", name, sparse.ErrNotSquare))
	}
	return memoize(&r.memo, "matrix|"+name, func() matrixCell {
		return matrixCell{md: newMatrixData(gen.Entry{Name: name}, m)}
	}).md
}

// ran records one execution of the unit at key and reports its progress
// line. Every fill calls it from inside its memo cell's sync.Once, so
// each key counts exactly once per Runner.
func (r *Runner) ran(key, format string, args ...interface{}) {
	r.countMu.Lock()
	r.unitCounts[key]++
	r.countMu.Unlock()
	r.progress(format, args...)
}

func (r *Runner) progress(format string, args ...interface{}) {
	if r.cfg.Progress == nil {
		return
	}
	r.progressMu.Lock()
	fmt.Fprintf(r.cfg.Progress, format+"\n", args...)
	r.progressMu.Unlock()
}

// UnitCounts returns a snapshot of how many times each expensive unit
// (generation, permutation, simulation) actually executed. The stress
// tests assert every count is exactly 1 under concurrent figures.
func (r *Runner) UnitCounts() map[string]int {
	r.countMu.Lock()
	defer r.countMu.Unlock()
	out := make(map[string]int, len(r.unitCounts))
	for k, v := range r.unitCounts {
		out[k] = v
	}
	return out
}

// Perm returns the cached permutation of the technique on the matrix.
// RABBIT-derived techniques share the underlying community detection.
func (r *Runner) Perm(md *MatrixData, tech reorder.Technique) sparse.Permutation {
	key := "perm|" + md.Entry.Name + "|" + tech.Name()
	return memoize(&r.memo, key, func() sparse.Permutation {
		var p sparse.Permutation
		if derive, ok := reorder.FromRabbit(tech); ok {
			p = derive(md.M, md.Rabbit())
		} else {
			p = tech.Order(md.M)
		}
		check.AssertPermutation(p)
		r.ran(key, "ordered   %-24s %s", md.Entry.Name, tech.Name())
		return p
	})
}

// SimLRU simulates the kernel on the reordered matrix through the device
// L2 with LRU replacement, caching by (technique, kernel).
func (r *Runner) SimLRU(md *MatrixData, tech reorder.Technique, k gpumodel.Kernel) cachesim.Stats {
	key := "lru|" + md.Entry.Name + "|" + tech.Name() + "|" + k.String()
	return memoize(&r.memo, key, func() cachesim.Stats {
		s := cachesim.SimulateLRUWith(r.cfg.Device.L2, r.cfg.Impl, r.traceFor(md, tech, k))
		r.ran(key, "simulated %-24s %-16s %-12s traffic=%.2fx", md.Entry.Name, tech.Name(), k.String(),
			gpumodel.NormalizedTraffic(s, k, md.N, md.NNZ))
		return s
	})
}

// SimBelady simulates the kernel under Belady-optimal replacement,
// caching by (technique, kernel) exactly like SimLRU, so concurrent
// figures share one trace recording and one simulation per combination.
func (r *Runner) SimBelady(md *MatrixData, tech reorder.Technique, k gpumodel.Kernel) cachesim.Stats {
	key := "belady|" + md.Entry.Name + "|" + tech.Name() + "|" + k.String()
	return memoize(&r.memo, key, func() cachesim.Stats {
		s := cachesim.SimulateBeladyFunc(r.cfg.Device.L2, r.cfg.Impl, r.traceFor(md, tech, k))
		r.ran(key, "belady    %-24s %-16s %-12s traffic=%.2fx", md.Entry.Name, tech.Name(), k.String(),
			gpumodel.NormalizedTraffic(s, k, md.N, md.NNZ))
		return s
	})
}

// permuted returns P·A·Pᵀ under the technique's cached permutation as a
// pattern: every matrix this package permutes feeds only trace generators
// and partitioners, which read no value.
func (r *Runner) permuted(md *MatrixData, tech reorder.Technique) *sparse.CSR {
	return md.M.Pattern().PermuteSymmetric(r.Perm(md, tech))
}

// traceFor builds the reference stream of the kernel over the reordered
// matrix.
func (r *Runner) traceFor(md *MatrixData, tech reorder.Technique, k gpumodel.Kernel) func(func(int64)) {
	pm := r.permuted(md, tech)
	line := r.cfg.Device.L2.LineBytes
	switch k.Kind {
	case gpumodel.SpMVCSR:
		return trace.SpMVCSR(pm, line)
	case gpumodel.SpMVCOO:
		return trace.SpMVCOO(sparse.CSRToCOO(pm), line)
	case gpumodel.SpMMCSR:
		return trace.SpMMCSR(pm, k.K, line)
	case gpumodel.SpMVCSC:
		return trace.SpMVCSC(pm, line)
	case gpumodel.SpGEMMCSR:
		return trace.SpGEMM(pm, pm, permuteRowNNZ(md.SpGEMMInfo().RowNNZ, r.Perm(md, tech)), line)
	case gpumodel.SpGEMMCSRCluster:
		return trace.SpGEMMCluster(pm, pm, permuteRowNNZ(md.SpGEMMInfo().RowNNZ, r.Perm(md, tech)), nil, line)
	default:
		panic("experiments: unknown kernel")
	}
}

// NormTraffic returns the kernel's simulated traffic normalized to
// compulsory traffic for the technique on the matrix.
func (r *Runner) NormTraffic(md *MatrixData, tech reorder.Technique, k gpumodel.Kernel) float64 {
	return gpumodel.NormalizedTraffic(r.SimLRU(md, tech, k), k, md.N, md.NNZ)
}

// NormRuntime returns the kernel's projected run time normalized to the
// ideal run time for the technique on the matrix.
func (r *Runner) NormRuntime(md *MatrixData, tech reorder.Technique, k gpumodel.Kernel) float64 {
	return gpumodel.NormalizedRuntime(r.cfg.Device, r.SimLRU(md, tech, k), k, md.N, md.NNZ)
}

// InsularMask returns the insular-node flags of the RABBIT communities.
func (r *Runner) InsularMask(md *MatrixData) []bool {
	return community.InsularNodes(md.M, md.Rabbit().Communities)
}

// SpMV is the default kernel of Figures 2-8.
var SpMV = gpumodel.Kernel{Kind: gpumodel.SpMVCSR}
