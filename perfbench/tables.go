package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpumodel"
	"repro/internal/kernels"
	"repro/internal/reorder"
)

// The tables workload is the researcher's matrix-in → table-cell path:
// every scheduler unit the golden-pinned experiments below need, timed
// one Runner.Prefetch at a time by nproc closed-loop workers, then the
// six renders, each diffed against its golden file.

// tablesMatrices is the golden test subset: insular, mesh, hub, random,
// giant-star and empty-row structure.
var tablesMatrices = []string{"soc-tight-2", "cfd-2d-5pt", "pld-arc-like", "er-deg16", "mawi-like", "wiki-talk-like"}

// tablesExperiments are the golden-pinned experiments the workload
// renders. The multidev golden is left out: it alone takes several times
// a whole pass, and abl-multidev runs the same code path.
var tablesExperiments = []string{"fig2", "table2", "obs", "advisor", "abl-spgemm", "abl-multidev"}

// ablationPicks are the matrices the ablations pick from this subset
// (their preferred structurally spread entries). A unit the renders need
// beyond the planned ones shows up in the exactly-once check.
var ablationPicks = []string{"soc-tight-2", "cfd-2d-5pt", "pld-arc-like"}

const goldenDir = "internal/experiments/testdata/golden"

var (
	spmvK      = gpumodel.Kernel{Kind: gpumodel.SpMVCSR}
	spgemmRowK = gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR}
	spgemmCluK = gpumodel.Kernel{Kind: gpumodel.SpGEMMCSRCluster}
)

type tablesBench struct {
	e       *env
	o       *outcome
	cfg     experiments.Config
	stages  [][]experiments.Unit // detection, orderings, simulations
	goldens map[string][]byte
	workers int

	// replayed caches the replayed stages of each unit by key, so every
	// traced pass splits its units without re-running them.
	replayed map[string][]stage
	lay      layerSums
	trafficX float64
}

// layerSums accumulates the replay measurements behind the per-layer
// metrics.
type layerSums struct {
	detectNs, detectNNZ   int64
	orderNs, orderNNZ     map[string]int64
	permuteNs, permuteNNZ int64
	traceNs, traceAcc     map[string]int64
	simNs, simAcc         int64
	mdevNs, mdevAcc       int64
	featNs, featNNZ       int64
	accesses, misses      int64
	genNs, genNNZ         int64
	passUnits             int64
}

func newTablesBench(e *env, o *outcome) *tablesBench {
	cfg := experiments.SmallConfig()
	cfg.Matrices = tablesMatrices
	cfg.Workers = runtime.NumCPU()
	tb := &tablesBench{e: e, o: o, cfg: cfg, workers: runtime.NumCPU(), replayed: map[string][]stage{}}
	tb.lay.orderNs, tb.lay.orderNNZ = map[string]int64{}, map[string]int64{}
	tb.lay.traceNs, tb.lay.traceAcc = map[string]int64{}, map[string]int64{}
	return tb
}

func runTables(e *env) (*outcome, error) {
	o := newOutcome()
	tb := newTablesBench(e, o)

	// Set-up: goldens, the unit plan, and the first pass's runner with
	// its matrices generated.
	tb.goldens = map[string][]byte{}
	for _, id := range tablesExperiments {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".tsv"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		tb.goldens[id] = b
	}
	r, err := tb.prepare()
	if err != nil {
		return nil, err
	}
	if err := tb.plan(r); err != nil {
		return nil, err
	}
	o.addSetup(e.first, 0)

	var lats []float64
	var verified, units int64
	var passCPU time.Duration
	runWindow := func(traced bool) (*window, error) {
		w := openWindow(0)
		var busy time.Duration
		for pass := 0; busy < e.seconds; pass++ {
			if r == nil {
				c := startSetup()
				if r, err = tb.prepare(); err != nil {
					return nil, err
				}
				o.addSetup(c, 0)
			}
			t0, c0 := time.Now(), cpuTime(0)
			res := tb.pass(r, traced)
			busy += time.Since(t0)
			passCPU += cpuTime(0) - c0
			lats = append(lats, res.lats...)
			units += int64(len(res.lats))
			o.attempted += int64(len(res.lats) + len(tablesExperiments))
			verified += res.verified
			if traced && pass == 0 {
				tb.replay(r)
			}
			r = nil
		}
		w.close(o)
		// The window is the time spent in passes; preparing the next
		// pass's runner is set-up, and replays are off the clock.
		w.end = w.start.Add(busy)
		w.cpu = passCPU
		return w, nil
	}

	if e.trace {
		// The untraced half measures the same passes without spans, so
		// the difference is the tracing overhead.
		wu, err := runWindow(false)
		if err != nil {
			return nil, err
		}
		untraced := wu.msPerOp(wu.cpu, units)
		lats, verified, units, passCPU = nil, 0, 0, 0
		wt, err := runWindow(true)
		if err != nil {
			return nil, err
		}
		tb.layers(wt)
		o.layer["trace.overhead_frac"] = wt.msPerOp(wt.cpu, units)/untraced - 1
		return tb.finish(o, wt, lats, verified, units)
	}
	w, err := runWindow(false)
	if err != nil {
		return nil, err
	}
	return tb.finish(o, w, lats, verified, units)
}

func (tb *tablesBench) finish(o *outcome, w *window, lats []float64, verified, units int64) (*outcome, error) {
	// Later passes' runners are set-ups too; prepare and drop more runners
	// for the median.
	for len(o.setup) < setupReps {
		c := startSetup()
		if _, err := tb.prepare(); err != nil {
			return nil, err
		}
		o.addSetup(c, 0)
	}
	o.host.PeakRSSMB = peakRSSMB(0)
	secs := w.seconds()
	o.e2e["cpu_ms_per_op"] = w.msPerOp(w.cpu, units)
	o.detail["cpu_ms_per_op_raw"] = ms(int64(w.cpu)) / float64(units)
	o.e2e["rss_mb"] = w.rss
	o.detail["goodput_per_s"] = float64(verified) / secs
	o.detail["cells_per_s"] = float64(units) / secs
	o.detail["p50_ms"] = median(lats)
	o.detail["p95_ms"] = quantile(lats, 0.95)
	o.detail["traffic_x"] = tb.trafficX
	return o, nil
}

// prepare builds a fresh runner and generates the subset's matrices.
func (tb *tablesBench) prepare() (*experiments.Runner, error) {
	r := experiments.NewRunner(tb.cfg)
	for _, name := range tablesMatrices {
		t0 := time.Now()
		md, err := r.Matrix(name)
		if err != nil {
			return nil, err
		}
		tb.lay.genNs += int64(time.Since(t0))
		tb.lay.genNNZ += md.NNZ
	}
	return r, nil
}

// plan builds the unit list of one pass, deduplicated, in three stages
// whose order within a stage the seed shuffles.
func (tb *tablesBench) plan(r *experiments.Runner) error {
	entries := r.Entries()
	pickedEntries := entries[:0:0]
	spgemmEntries := entries[:0:0]
	for _, e := range entries {
		for _, p := range ablationPicks {
			if e.Name != p {
				continue
			}
			pickedEntries = append(pickedEntries, e)
			md, err := r.Matrix(p)
			if err != nil {
				return err
			}
			// The SpGEMM flop budget, computed on the matrix directly so
			// the runner's own cached analysis stays inside the units.
			info, err := kernels.SpGEMMSymbolic(md.M, md.M)
			if err != nil {
				return err
			}
			if info.Flops <= experiments.SpGEMMMaxAmplification*md.NNZ {
				spgemmEntries = append(spgemmEntries, e)
			}
		}
	}
	fig2 := reorder.Figure2()
	var variants []reorder.Technique
	for _, grouped := range []bool{false, true} {
		for _, hub := range []core.HubMode{core.HubNone, core.HubSort, core.HubGroup} {
			variants = append(variants, reorder.RabbitVariant{Opts: core.Options{GroupInsular: grouped, Hub: hub}})
		}
	}
	adv, err := experiments.AdvisorTechniques()
	if err != nil {
		return err
	}
	spgemmTechs := []reorder.Technique{reorder.Random{Seed: 0xC0FFEE}, reorder.Original{}, reorder.Rabbit{}, reorder.RabbitPP{}}
	mdTechs := []reorder.Technique{reorder.Random{Seed: 0xC0FFEE}, reorder.Rabbit{}, reorder.RabbitPP{}}
	all := append(append(append([]reorder.Technique{}, fig2...), variants...), adv...)

	perms := experiments.PermUnits(entries, all)
	perms = append(perms, experiments.PermUnits(pickedEntries, append(spgemmTechs, mdTechs...))...)
	sims := experiments.SimUnits(entries, all, spmvK)
	sims = append(sims, experiments.SimUnits(spgemmEntries, spgemmTechs, spgemmRowK, spgemmCluK)...)
	for _, part := range []string{experiments.PartRowBlock, experiments.PartCommunity} {
		sims = append(sims, experiments.MultiDevUnits(pickedEntries, mdTechs, []int{4, 16}, part, spmvK)...)
	}
	order := rngFor(tb.e.seed, "tables/order")
	tb.stages = nil
	for _, st := range [][]experiments.Unit{experiments.StatsUnits(entries), perms, sims} {
		st = dedup(st)
		shuffle(order, st)
		tb.stages = append(tb.stages, st)
	}
	return nil
}

func unitKey(u experiments.Unit) string {
	tech := ""
	if u.Tech != nil {
		tech = u.Tech.Name()
	}
	return fmt.Sprintf("%d|%s|%s|%s|%d|%s", u.Kind, u.Matrix, tech, u.Kernel.String(), u.Devices, u.Part)
}

func dedup(us []experiments.Unit) []experiments.Unit {
	seen := map[string]bool{}
	out := us[:0:0]
	for _, u := range us {
		if k := unitKey(u); !seen[k] {
			seen[k] = true
			out = append(out, u)
		}
	}
	return out
}

type passResult struct {
	lats     []float64 // ms per unit
	verified int64
}

// pass runs every planned unit and the renders on a fresh runner.
func (tb *tablesBench) pass(r *experiments.Runner, traced bool) passResult {
	rec := tb.e.rec
	if !traced {
		rec = nil
	}
	var res passResult
	var mu sync.Mutex
	failed := false
	op := int64(0)
	for _, st := range tb.stages {
		base := op
		closedLoop(len(st), tb.workers, func(i int) {
			sp := rec.open("experiments.prefetch", 0, base+int64(i)+1)
			t0 := time.Now()
			err := r.Prefetch([]experiments.Unit{st[i]})
			d := time.Since(t0)
			sp.close()
			mu.Lock()
			res.lats = append(res.lats, float64(d)/1e6)
			if err != nil {
				failed = true
				tb.o.fail("unit %s: %v", unitKey(st[i]), err)
			}
			mu.Unlock()
		})
		op += int64(len(st))
	}
	for _, id := range tablesExperiments {
		op++
		sp := rec.open("experiments.render", 0, op)
		got, err := render(r, id)
		sp.close()
		if err != nil {
			failed = true
			tb.o.fail("render %s: %v", id, err)
			continue
		}
		if !bytes.Equal(got, tb.goldens[id]) {
			failed = true
			tb.o.fail("render %s differs from %s/%s.tsv", id, goldenDir, id)
		}
	}
	// Every planned unit, and only those, ran exactly once; generation
	// adds one "matrix|" key per matrix.
	counts := r.UnitCounts()
	want := len(tablesMatrices)
	for _, st := range tb.stages[1:] {
		want += len(st)
	}
	bad := len(counts) != want
	for k, c := range counts {
		if c != 1 {
			bad = true
			tb.o.fail("unit %s ran %d times", k, c)
		}
	}
	if bad {
		failed = true
		tb.o.fail("%d distinct units ran, %d planned", len(counts), want)
	}
	tb.lay.passUnits = int64(len(counts))
	if tb.trafficX == 0 {
		tb.trafficX = tb.spmvTraffic(r)
	}
	if !failed {
		res.verified = int64(len(res.lats))
	}
	return res
}

func render(r *experiments.Runner, id string) ([]byte, error) {
	ex, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	t, err := ex.Run(r)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.RenderTSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// closedLoop runs fn(0..n-1) on the given number of workers, each taking
// the next index as soon as its previous call returns.
func closedLoop(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
