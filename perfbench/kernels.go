package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// The kernels workloads execute the paper's kernels on the host, on
// Small-preset matrices reordered in set-up: kernels-spmv runs SpMV under
// four orderings (bandwidth-bound), kernels-spgemm runs C = A·A under two
// orderings in three schedules (accumulator-bound). They are two
// workloads so that each kernel has its own gated CPU time per call: in
// one mixed pass SpGEMM took three quarters of the CPU and hid SpMV. Each
// cell is called once in set-up as a warm-up, then every timed call is
// checked. The Full preset is not used: its set-up alone (generation,
// RABBIT++ and permutation of 12 M nonzeros) took 18 s and 1 GiB of
// memory on the 2-CPU host this was tuned on.

// spmvMatrices span insular, hub-heavy web, skewed power-law and mesh
// structure, 0.16–0.47 M nonzeros: 1.3–3.7 MiB of CSR arrays each, past
// a 2 MiB L2.
var spmvMatrices = []string{"soc-tight-2", "pld-arc-like", "rmat-skew-hi", "cfd-2d-5pt"}

// spgemmMatrices are matrices whose square stays cheap enough to call in
// every pass (tens of ms per call): a mesh, k-mer chains with community
// structure, and a hub-dominated graph with empty rows.
var spgemmMatrices = []string{"cfd-2d-5pt", "kmer-v1r-like", "wiki-talk-like"}

// spgemmTechniques are the orderings the SpGEMM cells run under.
var spgemmTechniques = []string{"RANDOM", "RABBIT++"}

// spmvTolerance bounds |y - y_ref| per row relative to sum |a_ij x_j|: the
// kernel and the reference accumulate in the same order, so any
// difference beyond rounding is a wrong result.
const spmvTolerance = 1e-5

// tileMaxRows caps a cluster-wise tile, bounding its accumulator.
const tileMaxRows = 256

type spmvCell struct {
	matrix, tech string
	a            *sparse.CSR
	x, ref, abs  []float32
}

type spgemmCell struct {
	matrix, tech, mode string
	a                  *sparse.CSR
	tiles              []community.Shard
	ref                *sparse.CSR
	flops              int64
}

// kcall is one timed kernel call of a pass.
type kcall struct {
	spmv   *spmvCell
	spgemm *spgemmCell
}

type kernelsBench struct {
	e      *env
	o      *outcome
	kind   string // "spmv" or "spgemm"
	spmv   []*spmvCell
	spgemm []*spgemmCell
	calls  []kcall
	// set-up sums for the per-layer metrics
	genNs, genNNZ         int64
	orderNs, orderNNZ     map[string]int64
	permuteNs, permuteNNZ int64
}

func newKernelsBench(e *env, o *outcome, kind string) *kernelsBench {
	return &kernelsBench{e: e, o: o, kind: kind, orderNs: map[string]int64{}, orderNNZ: map[string]int64{}}
}

// runKernels runs the kernels-spmv or kernels-spgemm workload.
func runKernels(e *env, kind string) (*outcome, error) {
	o := newOutcome()
	kb := newKernelsBench(e, o, kind)
	if err := kb.setup(); err != nil {
		return nil, err
	}
	o.addSetup(e.first, 0)

	type sample struct {
		c  kcall
		ns int64
	}
	var samples []sample
	var verified int64
	runWindow := func(traced bool) *window {
		rec := e.rec
		if !traced {
			rec = nil
		}
		w := openWindow(0)
		var mu sync.Mutex
		op := int64(0)
		for time.Since(w.start) < e.seconds {
			calls := kb.calls
			base := op
			closedLoop(len(calls), runtime.NumCPU(), func(i int) {
				c := calls[i]
				name := "kernels.spmv"
				if c.spgemm != nil {
					name = "kernels.spgemm." + c.spgemm.mode
				}
				sp := rec.open(name, 0, base+int64(i)+1)
				t0 := time.Now()
				y, out, err := c.run()
				d := time.Since(t0)
				sp.close()
				ok := err == nil && c.verify(y, out)
				mu.Lock()
				samples = append(samples, sample{c, int64(d)})
				o.attempted++
				if ok {
					verified++
				} else {
					o.fail("%s: wrong output (err %v)", c, err)
				}
				mu.Unlock()
			})
			op += int64(len(calls))
		}
		w.close(o)
		return w
	}
	w := runWindow(false)
	if e.trace {
		untraced := w.msPerOp(w.cpu, int64(len(samples)))
		samples, verified = nil, 0
		w = runWindow(true)
		o.layer["trace.overhead_frac"] = w.msPerOp(w.cpu, int64(len(samples)))/untraced - 1
	}

	// More set-ups, discarded, for the median.
	for len(o.setup) < setupReps {
		c := startSetup()
		if err := newKernelsBench(e, newOutcome(), kind).setup(); err != nil {
			return nil, err
		}
		o.addSetup(c, 0)
	}

	o.host.PeakRSSMB = peakRSSMB(0)
	var lats []float64
	var spmvFlops, spmvNs, sgFlops, sgNs float64
	perTech := map[string][2]float64{} // ns, nnz
	perCell := map[string][]float64{}
	perMode := map[string][2]float64{} // ns, flops
	var spmvBytes float64
	for _, s := range samples {
		lats = append(lats, float64(s.ns)/1e6)
		if c := s.c.spmv; c != nil {
			nnz := float64(c.a.NNZ())
			spmvFlops += 2 * nnz
			spmvNs += float64(s.ns)
			pt := perTech[c.tech]
			perTech[c.tech] = [2]float64{pt[0] + float64(s.ns), pt[1] + nnz}
			perCell[c.matrix+"|"+c.tech] = append(perCell[c.matrix+"|"+c.tech], float64(s.ns))
			spmvBytes += spmvComputedBytes(c.a)
		} else {
			c := s.c.spgemm
			sgFlops += float64(c.flops)
			sgNs += float64(s.ns)
			pm := perMode[c.mode]
			perMode[c.mode] = [2]float64{pm[0] + float64(s.ns), pm[1] + float64(c.flops)}
		}
	}
	secs := w.seconds()
	o.e2e["cpu_ms_per_op"] = w.msPerOp(w.cpu, int64(len(samples)))
	o.detail["cpu_ms_per_op_raw"] = ms(int64(w.cpu)) / float64(len(samples))
	o.e2e["rss_mb"] = w.rss
	o.detail["goodput_per_s"] = float64(verified) / secs
	o.detail["p50_ms"] = median(lats)
	if kind == "spmv" {
		o.detail["spmv_gflop_per_s"] = spmvFlops / spmvNs
	} else {
		o.detail["spgemm_mflop_per_s"] = sgFlops / sgNs * 1e3
	}
	if e.trace {
		for t, v := range perTech {
			o.layer["kernels.spmv_ns_per_nnz."+tag(t)] = v[0] / v[1]
		}
		var speedups []float64
		for _, m := range spmvMatrices {
			rnd, rpp := median(perCell[m+"|RANDOM"]), median(perCell[m+"|RABBIT++"])
			if rpp > 0 {
				speedups = append(speedups, rnd/rpp)
			}
		}
		o.layer["kernels.host_speedup_x"] = geomean(speedups)
		if kind == "spmv" {
			gbs, err := measureStream()
			if err != nil {
				return nil, fmt.Errorf("stream: %w", err)
			}
			o.host.StreamGBs = gbs
			o.layer["kernels.spmv_bw_frac"] = spmvBytes / spmvNs / gbs
		}
		for m, v := range perMode {
			o.layer["kernels.spgemm_ns_per_flop."+m] = v[0] / v[1]
		}
		for m, a := range kb.allocsPerCall() {
			o.layer["kernels.spgemm_allocs_per_call."+m] = a
		}
		o.layer["gen.ns_per_nnz"] = ratio(kb.genNs, kb.genNNZ)
		for t, ns := range kb.orderNs {
			o.layer["reorder.ns_per_nnz."+tag(t)] = ratio(ns, kb.orderNNZ[t])
		}
		o.layer["sparse.permute_ns_per_nnz"] = ratio(kb.permuteNs, kb.permuteNNZ)
		shares(e, o, secs)
	}
	return o, nil
}

// spmvComputedBytes is the compulsory traffic of one CSR SpMV with
// 4-byte elements: row offsets, column indices and values, x and y each
// read or written once. It is computed, not measured.
func spmvComputedBytes(a *sparse.CSR) float64 {
	n, nnz := float64(a.NumRows), float64(a.NNZ())
	return 4*(n+1) + 8*nnz + 4*float64(a.NumCols) + 4*n
}

func (c kcall) String() string {
	if c.spmv != nil {
		return "spmv " + c.spmv.matrix + " " + c.spmv.tech
	}
	return "spgemm " + c.spgemm.mode + " " + c.spgemm.matrix + " " + c.spgemm.tech
}

// run executes the call: SpMV into a fresh y, or SpGEMM into a new C.
func (c kcall) run() ([]float32, *sparse.CSR, error) {
	if s := c.spmv; s != nil {
		y := make([]float32, s.a.NumRows)
		return y, nil, kernels.SpMVCSR(s.a, s.x, y)
	}
	g := c.spgemm
	switch g.mode {
	case "dense":
		out, err := kernels.SpGEMM(g.a, g.a, kernels.SpGEMMDenseAcc)
		return nil, out, err
	case "merge":
		out, err := kernels.SpGEMM(g.a, g.a, kernels.SpGEMMSortedMerge)
		return nil, out, err
	default:
		out, _, err := kernels.SpGEMMClusterWise(g.a, g.a, g.tiles)
		return nil, out, err
	}
}

// verify checks an SpMV output against the dense reference within the
// stated tolerance, or an SpGEMM output for exact equality with the
// dense-accumulator product computed in set-up.
func (c kcall) verify(y []float32, out *sparse.CSR) bool {
	if s := c.spmv; s != nil {
		for i := range y {
			if math.Abs(float64(y[i]-s.ref[i])) > spmvTolerance*float64(s.abs[i])+1e-30 {
				return false
			}
		}
		return true
	}
	return out != nil && out.Equal(c.spgemm.ref)
}

func (kb *kernelsBench) setup() error {
	var err error
	if kb.kind == "spmv" {
		err = kb.setupSpMV()
	} else {
		err = kb.setupSpGEMM()
	}
	if err != nil {
		return err
	}
	// Warm-up: every cell once, checked, before anything is timed.
	for _, c := range kb.spmv {
		kb.calls = append(kb.calls, kcall{spmv: c})
	}
	for _, c := range kb.spgemm {
		kb.calls = append(kb.calls, kcall{spgemm: c})
	}
	for _, c := range kb.calls {
		y, out, err := c.run()
		if err != nil || !c.verify(y, out) {
			return fmt.Errorf("warm-up %s: wrong output (err %v)", c, err)
		}
	}
	// A pass calls each cell once, in a seeded order.
	shuffle(rngFor(kb.e.seed, "kernels/order"), kb.calls)
	return nil
}

// setupSpMV builds the SpMV cells: each matrix under each ordering, with
// its permuted input vector and dense reference output.
func (kb *kernelsBench) setupSpMV() error {
	for _, name := range spmvMatrices {
		m, err := kb.generate(name, gen.Small)
		if err != nil {
			return err
		}
		xr := rngFor(kb.e.seed, "kernels/x/"+name)
		x := make([]float32, m.NumCols)
		for i := range x {
			x[i] = float32(xr.Intn(17) - 8)
		}
		for _, tech := range spmvTechniques {
			p, err := kb.order(tech, m)
			if err != nil {
				return err
			}
			a, px := m, x
			if tech != "ORIGINAL" {
				a = kb.permute(m, p)
				px = p.PermuteVector(x)
			}
			c := &spmvCell{matrix: name, tech: tech, a: a, x: px}
			c.ref = kernels.DenseSpMVReference(a, px)
			c.abs = make([]float32, a.NumRows)
			for r := int32(0); r < a.NumRows; r++ {
				cols, vals := a.Row(r)
				for k, col := range cols {
					c.abs[r] += float32(math.Abs(float64(vals[k] * px[col])))
				}
			}
			kb.spmv = append(kb.spmv, c)
		}
	}
	return nil
}

// setupSpGEMM builds the SpGEMM cells: each matrix under each ordering in
// each schedule, with RABBIT communities as cluster-wise tiles and the
// dense-accumulator product as the reference.
func (kb *kernelsBench) setupSpGEMM() error {
	for _, name := range spgemmMatrices {
		m, err := kb.generate(name, gen.Small)
		if err != nil {
			return err
		}
		info, err := kernels.SpGEMMSymbolic(m, m)
		if err != nil {
			return err
		}
		comm := core.Rabbit(m).Communities.Of
		for _, tech := range spgemmTechniques {
			p, err := kb.order(tech, m)
			if err != nil {
				return err
			}
			a := kb.permute(m, p)
			labels := make([]int32, len(comm))
			for v, l := range comm {
				labels[p[v]] = l
			}
			tiles := community.TilesFromCommunities(labels, tileMaxRows)
			ref, err := kernels.SpGEMM(a, a, kernels.SpGEMMDenseAcc)
			if err != nil {
				return err
			}
			for _, mode := range spgemmModes {
				kb.spgemm = append(kb.spgemm, &spgemmCell{matrix: name, tech: tech, mode: mode, a: a, tiles: tiles, ref: ref, flops: info.Flops})
			}
		}
	}
	return nil
}

// generate builds the named corpus matrix with a seed derived from the
// run seed.
func (kb *kernelsBench) generate(name string, p gen.Preset) (*sparse.CSR, error) {
	entry, err := reseeded(name, kb.e.seed, "kernels")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m := entry.Generate(p)
	kb.genNs += since(t0)
	kb.genNNZ += int64(m.NNZ())
	return m, nil
}

func (kb *kernelsBench) order(tech string, m *sparse.CSR) (sparse.Permutation, error) {
	var t reorder.Technique
	if tech == "RANDOM" {
		t = reorder.Random{Seed: derive(kb.e.seed, "kernels/random")}
	} else {
		var err error
		if t, err = reorder.ByName(tech); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	p := t.Order(m)
	kb.orderNs[tech] += since(t0)
	kb.orderNNZ[tech] += int64(m.NNZ())
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%s ordering: %w", tech, err)
	}
	return p, nil
}

func (kb *kernelsBench) permute(m *sparse.CSR, p sparse.Permutation) *sparse.CSR {
	t0 := time.Now()
	a := m.PermuteSymmetric(p)
	kb.permuteNs += since(t0)
	kb.permuteNNZ += int64(m.NNZ())
	return a
}

// allocsPerCall counts heap allocations of one call per SpGEMM mode,
// averaged over the cells, on this goroutine alone.
func (kb *kernelsBench) allocsPerCall() map[string]float64 {
	out := map[string]float64{}
	n := map[string]float64{}
	var ms runtime.MemStats
	for _, c := range kb.spgemm {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		kcall{spgemm: c}.run()
		runtime.ReadMemStats(&ms)
		out[c.mode] += float64(ms.Mallocs - before)
		n[c.mode]++
	}
	for m := range out {
		out[m] /= n[m]
	}
	return out
}
