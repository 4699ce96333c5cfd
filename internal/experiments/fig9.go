package experiments

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/gpumodel"
	"repro/internal/metrics"
	"repro/internal/reorder"
	"repro/internal/report"
	"repro/internal/sparse"
)

// Fig9 reproduces Figure 9 and the Section VI-C amortization analysis:
// wall-clock reordering time for GORDER, RABBIT, and RABBIT++ as the
// matrix size grows, plus the number of SpMV iterations each technique
// needs to amortize its preprocessing cost (preprocessing time divided by
// the per-iteration time saved relative to a RANDOM starting order).
//
// Reordering runs on the host CPU while kernel time comes from the scaled
// device model, so the absolute iteration counts are not comparable to the
// paper's (which measured a real CPU against a real A6000); their ordering
// — GORDER needing an order of magnitude more iterations than RABBIT, and
// RABBIT++ adding modest overhead over RABBIT — is the reproduced result.
//
//lint:allow detsource Figure 9 measures real reordering wall time; the timing column is nondeterministic by design
func Fig9(r *Runner) (*report.Table, error) {
	sizes := []int32{8192, 16384, 32768, 65536}
	if r.cfg.Preset == gen.Full {
		sizes = []int32{32768, 65536, 131072, 262144}
	}
	techs := []reorder.Technique{
		reorder.Gorder{Window: 5},
		reorder.Rabbit{},
		reorder.RabbitPP{},
	}
	tb := report.New("Figure 9: matrix reordering time vs matrix size",
		"nodes", "nnz", "GORDER", "RABBIT", "RABBIT++")
	amortized := map[string][]float64{}
	for _, n := range sizes {
		g := gen.PlantedPartition{Nodes: n, Communities: n / 128, AvgDegree: 12, Mu: 0.2}
		m := g.Generate(99)
		row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", m.NNZ())}
		// Per-iteration SpMV time for RANDOM vs each technique, from the
		// device model.
		randPerm := reorder.Random{Seed: 0xC0FFEE}.Order(m)
		randTime := projectedSpMVTime(r, m.Pattern().PermuteSymmetric(randPerm))
		for _, t := range techs {
			start := time.Now()
			p := t.Order(m)
			elapsed := time.Since(start).Seconds()
			row = append(row, fmt.Sprintf("%.3fs", elapsed))
			techTime := projectedSpMVTime(r, m.Pattern().PermuteSymmetric(p))
			if saved := randTime - techTime; saved > 0 {
				amortized[t.Name()] = append(amortized[t.Name()], elapsed/saved)
			}
			r.progress("reorder   n=%-8d %-16s %.3fs", n, t.Name(), elapsed)
		}
		tb.Add(row...)
	}
	for _, t := range techs {
		if xs := amortized[t.Name()]; len(xs) > 0 {
			tb.Note("%s amortizes preprocessing in ~%.0f SpMV iterations (mean over sizes)",
				t.Name(), metrics.Mean(xs))
		}
	}
	tb.Note("paper (real A6000 vs host CPU): GORDER 7467, RABBIT 741, RABBIT++ 1047 iterations")
	return tb, nil
}

// projectedSpMVTime returns the device-model run time of one SpMV
// iteration over the given (already reordered) matrix.
func projectedSpMVTime(r *Runner, m *sparse.CSR) float64 {
	return gpumodel.ProjectTime(r.cfg.Device, simCSR(r, m))
}
