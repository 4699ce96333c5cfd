package experiments

import (
	"sort"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/gpumodel"
	"repro/internal/metrics"
	"repro/internal/reorder"
	"repro/internal/report"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Fig2 reproduces Figure 2: SpMV DRAM traffic (normalized to compulsory
// traffic) for every matrix under the six orderings, with the caption's
// mean traffic and mean run-time rows.
func Fig2(r *Runner) (*report.Table, error) {
	techs := reorder.Figure2()
	if err := r.Prefetch(SimUnits(r.Entries(), techs, SpMV)); err != nil {
		return nil, err
	}
	cols := []string{"matrix", "insularity"}
	for _, t := range techs {
		cols = append(cols, t.Name())
	}
	tb := report.New("Figure 2: SpMV DRAM traffic normalized to compulsory traffic", cols...)

	traffic := make(map[string][]float64)
	runtime := make(map[string][]float64)
	for _, e := range r.Entries() {
		md, err := r.Matrix(e.Name)
		if err != nil {
			return nil, err
		}
		row := []string{e.Name, report.F(md.Stats().Insularity)}
		for _, t := range techs {
			nt := r.NormTraffic(md, t, SpMV)
			nr := r.NormRuntime(md, t, SpMV)
			traffic[t.Name()] = append(traffic[t.Name()], nt)
			runtime[t.Name()] = append(runtime[t.Name()], nr)
			row = append(row, report.X(nt))
		}
		tb.Add(row...)
	}
	meanRow := []string{"MEAN-TRAFFIC", ""}
	runtimeRow := []string{"MEAN-RUNTIME", ""}
	for _, t := range techs {
		meanRow = append(meanRow, report.X(metrics.Mean(traffic[t.Name()])))
		runtimeRow = append(runtimeRow, report.X(metrics.Mean(runtime[t.Name()])))
	}
	tb.Add(meanRow...)
	tb.Add(runtimeRow...)
	tb.Note("paper means: traffic RANDOM 3.36x ORIGINAL 1.54x DEGSORT 1.61x DBG 1.48x GORDER 1.29x RABBIT 1.27x")
	tb.Note("paper means: run time RANDOM 6.21x ORIGINAL 1.96x DEGSORT 2.17x DBG 1.94x GORDER 1.56x RABBIT 1.54x")
	return tb, nil
}

// Fig3 reproduces Figure 3: RABBIT's SpMV run time normalized to ideal,
// with matrices in increasing insularity order, plus the two class means.
func Fig3(r *Runner) (*report.Table, error) {
	type row struct {
		name       string
		insularity float64
		runtime    float64
		commNorm   float64
	}
	rows, err := forEntries(r, func(md *MatrixData) (row, error) {
		return row{
			name:       md.Entry.Name,
			insularity: md.Stats().Insularity,
			runtime:    r.NormRuntime(md, reorder.Rabbit{}, SpMV),
			commNorm:   md.Stats().AvgCommunitySizeNorm,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].insularity < rows[b].insularity })

	tb := report.New("Figure 3: RABBIT SpMV run time normalized to ideal (by increasing insularity)",
		"matrix", "insularity", "runtime", "avg-comm-size/N")
	var lo, hi []float64
	for _, rw := range rows {
		tb.Add(rw.name, report.F(rw.insularity), report.X(rw.runtime), report.F(rw.commNorm))
		if rw.insularity >= InsularityThreshold {
			hi = append(hi, rw.runtime)
		} else {
			lo = append(lo, rw.runtime)
		}
	}
	tb.Add("MEAN-INS<0.95", "", report.X(metrics.Mean(lo)), "")
	tb.Add("MEAN-INS>=0.95", "", report.X(metrics.Mean(hi)), "")
	tb.Note("paper: insularity >= 0.95 within 26%% of ideal (1.26x); below, mean 1.81x")
	return tb, nil
}

// Correlations reproduces the Section V-B analysis: Pearson correlation of
// insularity with normalized community size (excluding the mawi anomaly)
// and with degree skew, plus the class mean skews.
func Correlations(r *Runner) (*report.Table, error) {
	if err := r.Prefetch(StatsUnits(r.Entries())); err != nil {
		return nil, err
	}
	var ins, commSize, skew []float64
	var insNoMawi, commSizeNoMawi []float64
	var skewLo, skewHi []float64
	for _, e := range r.Entries() {
		md, err := r.Matrix(e.Name)
		if err != nil {
			return nil, err
		}
		s := md.Stats()
		ins = append(ins, s.Insularity)
		commSize = append(commSize, s.AvgCommunitySizeNorm)
		skew = append(skew, s.Skew)
		// The paper excludes mawi from the size correlation: its giant
		// single community maximizes insularity without locality meaning.
		if s.LargestCommunityFraction < 0.90 {
			insNoMawi = append(insNoMawi, s.Insularity)
			commSizeNoMawi = append(commSizeNoMawi, s.AvgCommunitySizeNorm)
		}
		if s.Insularity >= InsularityThreshold {
			skewHi = append(skewHi, s.Skew)
		} else {
			skewLo = append(skewLo, s.Skew)
		}
	}
	tb := report.New("Section V-B: community-quality correlations", "statistic", "value", "paper")
	tb.Add("Pearson(insularity, avg community size/N) excl. giant-community matrices",
		report.F(metrics.Pearson(insNoMawi, commSizeNoMawi)), "-0.472")
	tb.Add("Pearson(insularity, skew)", report.F(metrics.Pearson(ins, skew)), "-0.721")
	tb.Add("mean skew, insularity >= 0.95", report.Pct(metrics.Mean(skewHi)), "16.37%")
	tb.Add("mean skew, insularity < 0.95", report.Pct(metrics.Mean(skewLo)), "41.74%")
	return tb, nil
}

// Fig4 reproduces Figure 4: the percentage of insular nodes per matrix, in
// increasing insularity order.
func Fig4(r *Runner) (*report.Table, error) {
	type row struct {
		name         string
		insularity   float64
		insularNodes float64
	}
	rows, err := forEntries(r, func(md *MatrixData) (row, error) {
		return row{md.Entry.Name, md.Stats().Insularity, md.Stats().InsularNodeFraction}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].insularity < rows[b].insularity })
	tb := report.New("Figure 4: percentage of insular nodes (by increasing insularity)",
		"matrix", "insularity", "insular-nodes")
	var lo []float64
	for _, rw := range rows {
		tb.Add(rw.name, report.F(rw.insularity), report.Pct(rw.insularNodes))
		if rw.insularity < InsularityThreshold {
			lo = append(lo, rw.insularNodes)
		}
	}
	tb.Note("mean insular-node share of the insularity<0.95 class: %s", report.Pct(metrics.Mean(lo)))
	tb.Note("paper: even low-insularity matrices keep a substantial insular share")
	return tb, nil
}

// Fig6 reproduces Figure 6: the DRAM traffic of the insular sub-matrix
// (all nonzeros not touching insular nodes masked away) under the
// insular-grouped RABBIT ordering, normalized to the sub-matrix's
// compulsory traffic. Matrices whose empty rows dominate can fall below
// 1.0 (the paper's wiki-Talk footnote).
func Fig6(r *Runner) (*report.Table, error) {
	tb := report.New("Figure 6: insular sub-matrix traffic normalized to its compulsory traffic",
		"matrix", "insular-nodes", "traffic")
	variant := reorder.RabbitVariant{Opts: core.Options{GroupInsular: true}}
	type row struct {
		insularFrac float64
		traffic     float64
		hasNNZ      bool
	}
	rows, err := forEntries(r, func(md *MatrixData) (row, error) {
		insular := r.InsularMask(md)
		masked := md.M.MaskRowsCols(insular)
		if masked.NNZ() == 0 {
			return row{}, nil
		}
		p := r.Perm(md, variant)
		pm := masked.Pattern().PermuteSymmetric(p)
		s := simCSR(r, pm)
		nt := gpumodel.NormalizedTraffic(s, SpMV, int64(pm.NumRows), int64(pm.NNZ()))
		return row{insularFrac: md.Stats().InsularNodeFraction, traffic: nt, hasNNZ: true}, nil
	})
	if err != nil {
		return nil, err
	}
	var vals []float64
	for i, e := range r.Entries() {
		rw := rows[i]
		if !rw.hasNNZ {
			tb.Add(e.Name, report.Pct(0), "n/a")
			continue
		}
		vals = append(vals, rw.traffic)
		tb.Add(e.Name, report.Pct(rw.insularFrac), report.X(rw.traffic))
	}
	tb.Note("mean %s; paper: the insular portion achieves ideal traffic (wiki-Talk below 1.0 via empty rows)",
		report.X(metrics.Mean(vals)))
	return tb, nil
}

// Fig7 reproduces Figure 7: the reduction in SpMV DRAM traffic of RABBIT++
// over RABBIT for the low-insularity matrices (the high-insularity class
// changes by under ~1%).
func Fig7(r *Runner) (*report.Table, error) {
	tb := report.New("Figure 7: RABBIT++ DRAM traffic reduction over RABBIT (insularity < 0.95)",
		"matrix", "insularity", "RABBIT", "RABBIT++", "reduction")
	if err := r.Prefetch(SimUnits(r.Entries(),
		[]reorder.Technique{reorder.Rabbit{}, reorder.RabbitPP{}}, SpMV)); err != nil {
		return nil, err
	}
	var reductions, all, allHi []float64
	for _, e := range r.Entries() {
		md, err := r.Matrix(e.Name)
		if err != nil {
			return nil, err
		}
		rab := r.NormTraffic(md, reorder.Rabbit{}, SpMV)
		rpp := r.NormTraffic(md, reorder.RabbitPP{}, SpMV)
		red := rab / rpp
		all = append(all, red)
		if md.HighInsularity() {
			allHi = append(allHi, red)
			continue
		}
		reductions = append(reductions, red)
		tb.Add(e.Name, report.F(md.Stats().Insularity), report.X(rab), report.X(rpp), report.X(red))
	}
	tb.Note("max reduction %s, mean (ins<0.95) %s, mean (all) %s; paper: max 1.56x, mean 7.7%% / 4.1%%",
		report.X(metrics.Max(reductions)), report.X(metrics.GeoMean(reductions)), report.X(metrics.GeoMean(all)))
	if len(allHi) > 0 {
		tb.Note("high-insularity class mean %s (paper: within 1%% of RABBIT)", report.X(metrics.GeoMean(allHi)))
	}
	return tb, nil
}

// simCSR runs a bare CSR SpMV LRU simulation outside the per-technique
// cache (used for derived matrices like the insular sub-matrix).
func simCSR(r *Runner, m *sparse.CSR) cachesim.Stats {
	return cachesim.SimulateLRUWith(r.cfg.Device.L2, r.cfg.Impl, trace.SpMVCSR(m, r.cfg.Device.L2.LineBytes))
}
