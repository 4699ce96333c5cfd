package main

import (
	"time"

	"repro/internal/advisor"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpumodel"
	"repro/internal/multidev"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// spmvTraffic is the geomean of the SpMV-CSR LRU cells' traffic
// normalized to compulsory traffic, read from the runner's warm caches.
func (tb *tablesBench) spmvTraffic(r *experiments.Runner) float64 {
	var xs []float64
	for _, u := range tb.stages[2] {
		if u.Kind != experiments.UnitSimLRU || u.Kernel.Kind != gpumodel.SpMVCSR {
			continue
		}
		md, err := r.Matrix(u.Matrix)
		if err != nil {
			continue
		}
		xs = append(xs, gpumodel.NormalizedTraffic(r.SimLRU(md, u.Tech, u.Kernel), u.Kernel, md.N, md.NNZ))
	}
	return geomean(xs)
}

// replay re-executes, off the clock, the stages of every unit of the
// traced pass just run: detection, ordering, PermuteSymmetric, the trace
// generator alone, and SimulateLRUWith or multidev.Simulate on the same
// cell. The durations split each unit's span among the modules; what
// remains of the span is the scheduler's own time.
func (tb *tablesBench) replay(r *experiments.Runner) {
	line := tb.cfg.Device.L2.LineBytes
	l := &tb.lay
	for _, st := range tb.stages {
		for _, u := range st {
			md, err := r.Matrix(u.Matrix)
			if err != nil {
				continue
			}
			var stages []stage
			switch u.Kind {
			case experiments.UnitStats:
				t0 := time.Now()
				rr := core.Rabbit(md.M)
				core.Analyze(md.M, rr.Communities)
				d := since(t0)
				stages = []stage{{"core.detect", d}}
				l.detectNs += d
				l.detectNNZ += md.NNZ
			case experiments.UnitPerm:
				name, d := replayOrder(md, u.Tech)
				stages = []stage{{name, d}}
				l.orderNs[u.Tech.Name()] += d
				l.orderNNZ[u.Tech.Name()] += md.NNZ
			case experiments.UnitSimLRU:
				p := r.Perm(md, u.Tech)
				t0 := time.Now()
				pm := md.M.PermuteSymmetric(p)
				dPerm := since(t0)
				kind, gen := traceOf(md, pm, p, u.Kernel, line)
				var acc int64
				t0 = time.Now()
				gen(func(int64) { acc++ })
				dTrace := since(t0)
				t0 = time.Now()
				s := cachesim.SimulateLRUWith(tb.cfg.Device.L2, tb.cfg.Impl, gen)
				dSim := since(t0) - dTrace
				stages = []stage{{"sparse.permute", dPerm}, {"trace." + kind, dTrace}, {"cachesim.simulate", dSim}}
				l.permuteNs += dPerm
				l.permuteNNZ += md.NNZ
				l.traceNs[kind] += dTrace
				l.traceAcc[kind] += acc
				l.simNs += dSim
				l.simAcc += acc
				l.accesses += acc
				l.misses += s.Misses
			case experiments.UnitSimMulti:
				p := r.Perm(md, u.Tech)
				t0 := time.Now()
				pm := md.M.PermuteSymmetric(p)
				dPerm := since(t0)
				t0 = time.Now()
				owner := ownerOf(md, p, pm, u.Devices, u.Part)
				dOwner := since(t0)
				t0 = time.Now()
				ot := trace.SpMVCSROwned(pm, owner, line)
				var acc int64
				ot.Trace(func(int32, int64) { acc++ })
				dTrace := since(t0)
				cfg := multidev.Config{Devices: u.Devices, L2: tb.cfg.Device.L2.Split(u.Devices), Impl: tb.cfg.Impl}
				t0 = time.Now()
				multidev.Simulate(cfg, ot)
				dSim := since(t0)
				// Simulate walks the trace once more; its own time excludes
				// that walk, approximated by the generator's time.
				dSim -= dTrace
				stages = []stage{{"sparse.permute", dPerm}, {"multidev.partition", dOwner}, {"trace.owned", dTrace}, {"multidev.simulate", dSim}}
				l.permuteNs += dPerm
				l.permuteNNZ += md.NNZ
				l.traceNs["owned"] += dTrace
				l.traceAcc["owned"] += acc
				l.mdevNs += dSim
				l.mdevAcc += acc
				l.accesses += acc
			}
			tb.replayed[unitKey(u)] = stages
		}
	}
	for _, name := range tablesMatrices {
		md, err := r.Matrix(name)
		if err != nil {
			continue
		}
		t0 := time.Now()
		advisor.ExtractFeatures(md.M)
		l.featNs += since(t0)
		l.featNNZ += md.NNZ
	}
}

// replayOrder times the technique's ordering as the runner computes it:
// RABBIT-derived orderings reuse the cached detection.
func replayOrder(md *experiments.MatrixData, t reorder.Technique) (string, int64) {
	t0 := time.Now()
	switch v := t.(type) {
	case reorder.Rabbit:
		_ = md.Rabbit().Perm
		return "core.cached", since(t0)
	case reorder.RabbitPP:
		core.ModifyRabbit(md.M, md.Rabbit(), core.PlusPlusOptions())
		return "core.modify", since(t0)
	case reorder.RabbitVariant:
		core.ModifyRabbit(md.M, md.Rabbit(), v.Opts)
		return "core.modify", since(t0)
	default:
		t.Order(md.M)
		return "reorder.order", since(t0)
	}
}

// traceOf mirrors the runner's trace construction for a simulation unit.
func traceOf(md *experiments.MatrixData, pm *sparse.CSR, p sparse.Permutation, k gpumodel.Kernel, line int64) (string, func(func(int64))) {
	switch k.Kind {
	case gpumodel.SpGEMMCSR:
		return "spgemm", trace.SpGEMM(pm, pm, permuteRowNNZ(md.SpGEMMInfo().RowNNZ, p), line)
	case gpumodel.SpGEMMCSRCluster:
		return "spgemm-cluster", trace.SpGEMMCluster(pm, pm, permuteRowNNZ(md.SpGEMMInfo().RowNNZ, p), nil, line)
	default:
		return "spmv", trace.SpMVCSR(pm, line)
	}
}

func permuteRowNNZ(rowNNZ []int32, p sparse.Permutation) []int32 {
	out := make([]int32, len(rowNNZ))
	for i, v := range rowNNZ {
		out[p[i]] = v
	}
	return out
}

// ownerOf mirrors the runner's row → device split of the reordered matrix.
func ownerOf(md *experiments.MatrixData, p sparse.Permutation, pm *sparse.CSR, devices int, part string) []int32 {
	if part == experiments.PartCommunity {
		labels := partition.FromCommunities(md.Rabbit().Communities, int32(devices))
		out := make([]int32, len(labels))
		for v, l := range labels {
			out[p[v]] = l
		}
		return out
	}
	return partition.RowBlocks(pm.NumRows, int32(devices))
}

// layers turns the traced window's spans and the replay sums into the
// per-layer metrics.
func (tb *tablesBench) layers(w *window) {
	rec, o, l := tb.e.rec, tb.o, &tb.lay
	var overhead, renderNs int64
	passes := int64(0)
	for _, s := range rec.closed("experiments.prefetch") {
		u := tb.unitByOp(s.Op)
		st := tb.replayed[unitKey(u)]
		rec.replay(s, st)
		d := s.End - s.Start
		for _, x := range st {
			d -= x.ns
		}
		overhead += max(d, 0)
	}
	for _, s := range rec.closed("experiments.render") {
		renderNs += s.End - s.Start
		if s.Op == tb.renderOp("advisor") {
			rec.replay(s, []stage{{"advisor.features", l.featNs}})
		}
		if s.Op == tb.renderOp(tablesExperiments[0]) {
			passes++
		}
	}
	passes = max(passes, 1)
	shares(tb.e, o, w.seconds())
	o.layer["experiments.units"] = float64(l.passUnits)
	o.layer["experiments.overhead_ms"] = ms(overhead) / float64(passes)
	o.layer["experiments.render_ms"] = ms(renderNs) / float64(passes)
	o.layer["gen.ns_per_nnz"] = ratio(l.genNs, l.genNNZ)
	o.layer["core.detect_ns_per_nnz"] = ratio(l.detectNs, l.detectNNZ)
	for t, ns := range l.orderNs {
		o.layer["reorder.ns_per_nnz."+tag(t)] = ratio(ns, l.orderNNZ[t])
	}
	o.layer["sparse.permute_ns_per_nnz"] = ratio(l.permuteNs, l.permuteNNZ)
	for k, ns := range l.traceNs {
		o.layer["trace.ns_per_access."+k] = ratio(ns, l.traceAcc[k])
	}
	o.layer["trace.accesses"] = float64(l.accesses)
	o.layer["cachesim.ns_per_access"] = ratio(l.simNs, l.simAcc)
	o.layer["cachesim.misses"] = float64(l.misses)
	o.layer["multidev.ns_per_access"] = ratio(l.mdevNs, l.mdevAcc)
	o.layer["advisor.features_ns_per_nnz"] = ratio(l.featNs, l.featNNZ)
}

// unitByOp maps a unit span's operation id back to its unit: ids number
// the units of a pass stage by stage from 1, then the renders.
func (tb *tablesBench) unitByOp(op int64) experiments.Unit {
	i := op - 1
	for _, st := range tb.stages {
		if i < int64(len(st)) {
			return st[i]
		}
		i -= int64(len(st))
	}
	return experiments.Unit{}
}

func (tb *tablesBench) renderOp(id string) int64 {
	n := int64(0)
	for _, st := range tb.stages {
		n += int64(len(st))
	}
	for i, x := range tablesExperiments {
		if x == id {
			return n + int64(i) + 1
		}
	}
	return 0
}
