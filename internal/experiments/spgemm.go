package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/community"
	"repro/internal/gen"
	"repro/internal/gpumodel"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/reorder"
	"repro/internal/report"
	"repro/internal/sparse"
)

// SpGEMMMaxAmplification is the flop budget of the SpGEMM experiments:
// matrices whose symbolic flop count exceeds this multiple of nnz(A) are
// skipped and named in the table notes. Star-like graphs (a hub row times
// a hub column) amplify nnz(A) by thousands — mawi-like reaches 15000× on
// the Small corpus, with an output denser than the simulator's trace
// budget — while every community-structured matrix stays well under this
// cap, so the budget excludes exactly the degenerate products.
const SpGEMMMaxAmplification = 64

// SpGEMMInfo returns the cached symbolic analysis of the square product
// C = M·M: per-row output sizes, nnz(C), and the flop count. All three are
// invariant under symmetric relabeling, so one pass on the original
// ordering serves every technique.
func (md *MatrixData) SpGEMMInfo() kernels.SpGEMMInfo {
	md.spgemmOnce.Do(func() {
		info, err := kernels.SpGEMMSymbolic(md.M, md.M)
		if err != nil {
			// The corpus selection rule guarantees square matrices, so the
			// only shape error is a generator bug.
			panic(fmt.Sprintf("experiments: SpGEMM symbolic on %s: %v", md.Entry.Name, err))
		}
		md.spgemm = info
	})
	return md.spgemm
}

// SpGEMMKernel returns the kernel descriptor for C = M·M — row-wise or
// cluster-wise — with the symbolic Work terms attached, so the
// compulsory-traffic and flop formulas behind normalization have the
// data-dependent counts the SpGEMM kinds need. Kernel.String() excludes Work, so simulations keyed by a bare
// Kind-only kernel (scheduler prefetch units) share the cache with these.
func (md *MatrixData) SpGEMMKernel(cluster bool) gpumodel.Kernel {
	info := md.SpGEMMInfo()
	kind := gpumodel.SpGEMMCSR
	if cluster {
		kind = gpumodel.SpGEMMCSRCluster
	}
	return gpumodel.Kernel{Kind: kind, Work: gpumodel.SpGEMMWork{
		Flops: info.Flops,
		NNZB:  md.NNZ,
		NNZC:  info.NNZC,
	}}
}

// spgemmWithinBudget reports whether the matrix's product stays within the
// experiment flop budget.
func spgemmWithinBudget(md *MatrixData) bool {
	return md.SpGEMMInfo().Flops <= SpGEMMMaxAmplification*md.NNZ
}

// permuteRowNNZ carries per-row symbolic output sizes from the original
// ordering to the permuted one: row i moves to p[i].
func permuteRowNNZ(rowNNZ []int32, p sparse.Permutation) []int32 {
	out := make([]int32, len(rowNNZ))
	for i, v := range rowNNZ {
		out[p[i]] = v
	}
	return out
}

// spgemmEntries splits the runner's corpus subset into the entries within
// the flop budget and the skipped names, both in corpus order.
func spgemmEntries(r *Runner) (in []gen.Entry, skipped []string, err error) {
	for _, e := range r.Entries() {
		md, err := r.Matrix(e.Name)
		if err != nil {
			return nil, nil, err
		}
		if spgemmWithinBudget(md) {
			in = append(in, e)
		} else {
			skipped = append(skipped, e.Name)
		}
	}
	return in, skipped, nil
}

// SpGEMMTable extends the Table IV kernel-generality study to sparse ×
// sparse: C = A·A run time normalized to ideal under row-wise Gustavson
// execution, across every registered reordering technique, split by
// insularity class. Community reordering concentrates the B-row
// dereferences exactly as it concentrates SpMV's input-vector reads, so
// the technique ranking should transfer (arXiv 2507.21253).
func SpGEMMTable(r *Runner) (*report.Table, error) {
	techs := TableIVTechniques()
	included, skipped, err := spgemmEntries(r)
	if err != nil {
		return nil, err
	}
	if err := r.Prefetch(SimUnits(included, techs, gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR})); err != nil {
		return nil, err
	}
	tb := report.New("SpGEMM generality: C = A·A run time normalized to ideal (row-wise Gustavson)",
		"technique", "ALL", "INS<0.95", "INS>=0.95")
	for _, t := range techs {
		var as, ls, hs []float64
		for _, e := range included {
			md, err := r.Matrix(e.Name)
			if err != nil {
				return nil, err
			}
			v := r.NormRuntime(md, t, md.SpGEMMKernel(false))
			as = append(as, v)
			if md.HighInsularity() {
				hs = append(hs, v)
			} else {
				ls = append(ls, v)
			}
		}
		tb.Add(t.Name(), report.X(metrics.Mean(as)), report.X(metrics.Mean(ls)), report.X(metrics.Mean(hs)))
	}
	if len(skipped) > 0 {
		tb.Note(fmt.Sprintf("flop budget: %d matrices with flops > %dx nnz(A) skipped: %s",
			len(skipped), SpGEMMMaxAmplification, strings.Join(skipped, ", ")))
	}
	tb.Note("the irregular operand is B's rows; community reordering should rank as it does for SpMV")
	return tb, nil
}

// AblSpGEMMCluster is the cluster-wise-vs-row-wise ablation: for each
// technique it compares simulated traffic and miss rate between row-wise
// Gustavson and cluster-wise execution tiled by community.Shards, and
// reports the matrix's compression ratio (flops per output nonzero)
// alongside the peak per-tile accumulator footprint — the on-chip state
// the cluster-wise schedule keeps resident between spills.
func AblSpGEMMCluster(r *Runner) (*report.Table, error) {
	techs := []reorder.Technique{
		reorder.Random{Seed: 0xC0FFEE},
		reorder.Original{},
		reorder.Rabbit{},
		reorder.RabbitPP{},
	}
	rowK := gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR}
	cluK := gpumodel.Kernel{Kind: gpumodel.SpGEMMCSRCluster}
	tb := report.New("Ablation: SpGEMM cluster-wise vs row-wise execution (C = A·A traffic normalized to compulsory)",
		"matrix", "technique", "row-wise", "cluster-wise", "miss% row", "miss% cluster", "compress", "tile-acc-KB")
	missPct := func(s cachesim.Stats) string {
		if s.Accesses == 0 {
			return report.Pct(0)
		}
		return report.Pct(float64(s.Misses) / float64(s.Accesses))
	}
	err := ablate(r, tb, pickEntries(r, 3), func(md *MatrixData) ([][]string, error) {
		if !spgemmWithinBudget(md) {
			return nil, nil
		}
		info := md.SpGEMMInfo()
		kRow, kClu := md.SpGEMMKernel(false), md.SpGEMMKernel(true)
		var out [][]string
		for _, t := range techs {
			sRow := r.SimLRU(md, t, rowK)
			sClu := r.SimLRU(md, t, cluK)
			foot := kernels.SpGEMMTileFootprint(
				permuteRowNNZ(info.RowNNZ, r.Perm(md, t)),
				community.Shards(md.M.NumRows))
			out = append(out, []string{md.Entry.Name, t.Name(),
				report.X(gpumodel.NormalizedTraffic(sRow, kRow, md.N, md.NNZ)),
				report.X(gpumodel.NormalizedTraffic(sClu, kClu, md.N, md.NNZ)),
				missPct(sRow), missPct(sClu),
				report.F(info.CompressionRatio()),
				fmt.Sprintf("%.1f", float64(8*foot)/1024)})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	tb.Note("cluster-wise loads each B row once per community tile; the traffic gap is the captured reuse")
	tb.Note(fmt.Sprintf("flop budget: matrices with flops > %dx nnz(A) are omitted", SpGEMMMaxAmplification))
	return tb, nil
}
