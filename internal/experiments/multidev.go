package experiments

import (
	"fmt"
	"strings"

	"repro/internal/gpumodel"
	"repro/internal/metrics"
	"repro/internal/multidev"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/report"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Partitioner names accepted by the multi-device experiments and
// cmd/cachesim -partition.
const (
	// PartRowBlock splits the reordered matrix into contiguous equal row
	// blocks — the schedule a runtime applies after reordering, and the
	// split every registered technique is judged under in MultiDevTable.
	PartRowBlock = "rowblock"
	// PartMetis runs the multilevel partitioner on the reordered matrix.
	PartMetis = "metis"
	// PartCommunity packs whole RABBIT communities onto devices
	// (partition.FromCommunities), carried through the technique's
	// permutation.
	PartCommunity = "community"
)

// MultiDevKs is the device-count sweep of the multidev experiment family.
// K=1 doubles as the embedded flat baseline the differential test pins.
var MultiDevKs = []int{1, 4, 16}

// multiDevOwner computes the per-row device labels of the reordered
// matrix pm under the named partitioner. The labels index rows of pm
// (the permuted matrix), which is what the owned trace generators take.
func (r *Runner) multiDevOwner(md *MatrixData, tech reorder.Technique, pm *sparse.CSR, devices int, part string) []int32 {
	switch part {
	case PartRowBlock:
		return partition.RowBlocks(pm.NumRows, int32(devices))
	case PartMetis:
		return partition.Partition(pm, partition.Options{Parts: int32(devices)})
	case PartCommunity:
		labels := partition.FromCommunities(md.Rabbit().Communities, int32(devices))
		p := r.Perm(md, tech)
		out := make([]int32, len(labels))
		for v, l := range labels {
			out[p[v]] = l
		}
		return out
	default:
		// Partitioner names come from this package's constants or a CLI
		// that validates first, so an unknown name is a programming error.
		panic(fmt.Sprintf("experiments: unknown partitioner %q", part))
	}
}

// ownedTraceFor builds the device-attributed reference stream of the
// kernel over pm, the matrix reordered by tech. Only the kernels the
// multidev family sweeps have owned generators; the cluster and CSC
// variants do not.
func (r *Runner) ownedTraceFor(md *MatrixData, tech reorder.Technique, pm *sparse.CSR, k gpumodel.Kernel, owner []int32) trace.OwnedTrace {
	line := r.cfg.Device.L2.LineBytes
	switch k.Kind {
	case gpumodel.SpMVCSR:
		return trace.SpMVCSROwned(pm, owner, line)
	case gpumodel.SpMVCOO:
		return trace.SpMVCOOOwned(sparse.CSRToCOO(pm), owner, line)
	case gpumodel.SpMMCSR:
		return trace.SpMMCSROwned(pm, k.K, owner, line)
	case gpumodel.SpGEMMCSR:
		return trace.SpGEMMOwned(pm, pm, permuteRowNNZ(md.SpGEMMInfo().RowNNZ, r.Perm(md, tech)), owner, line)
	default:
		panic(fmt.Sprintf("experiments: kernel %s has no owned trace", k.String()))
	}
}

// SimMultiDev simulates the kernel on devices private caches with the
// named partitioner, caching by (technique, kernel, K, partitioner)
// exactly like SimLRU. The per-device geometry is the configured flat L2
// split K ways (constant silicon), so K=1 is the flat path bit for bit.
func (r *Runner) SimMultiDev(md *MatrixData, tech reorder.Technique, k gpumodel.Kernel, devices int, part string) multidev.Stats {
	key := fmt.Sprintf("mdev|%s|%s|%s|K%d|%s", md.Entry.Name, tech.Name(), k.String(), devices, part)
	return memoize(&r.memo, key, func() multidev.Stats {
		pm := r.permuted(md, tech)
		owner := r.multiDevOwner(md, tech, pm, devices, part)
		cfg := multidev.Config{
			Devices: devices,
			L2:      r.cfg.Device.L2.Split(devices),
			Impl:    r.cfg.Impl,
		}
		s := multidev.Simulate(cfg, r.ownedTraceFor(md, tech, pm, k, owner))
		r.ran(key, "multidev  %-24s %-16s %-12s K=%-3d %s remote=%s", md.Entry.Name, tech.Name(), k.String(),
			devices, part, report.Pct(s.RemoteFraction()))
		return s
	})
}

// MultiDevTable sweeps the full reorder registry across device counts for
// SpMV and SpGEMM under the row-block split: projected multi-device run
// time (each device at 1/K bandwidth, remote lines charged the
// interconnect penalty, slowest device finishes last) normalized to the
// flat single-device ideal. The K=1 columns are the flat baseline; the
// K=4/K=16 columns answer whether a technique's single-cache gains
// survive partitioning.
func MultiDevTable(r *Runner) (*report.Table, error) {
	techs := TableIVTechniques()
	spmvK := gpumodel.Kernel{Kind: gpumodel.SpMVCSR}
	spgemmK := gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR}
	included, skipped, err := spgemmEntries(r)
	if err != nil {
		return nil, err
	}
	units := MultiDevUnits(r.Entries(), techs, MultiDevKs, PartRowBlock, spmvK)
	units = append(units, MultiDevUnits(included, techs, MultiDevKs, PartRowBlock, spgemmK)...)
	if err := r.Prefetch(units); err != nil {
		return nil, err
	}
	cols := []string{"technique"}
	for _, k := range MultiDevKs {
		cols = append(cols, fmt.Sprintf("SpMV K=%d", k))
	}
	for _, k := range MultiDevKs {
		cols = append(cols, fmt.Sprintf("SpGEMM K=%d", k))
	}
	tb := report.New("Multi-device: run time vs device count (row-block split, normalized to flat ideal)", cols...)
	for _, t := range techs {
		row := []string{t.Name()}
		for _, devs := range MultiDevKs {
			d := r.cfg.Device.WithDevices(devs)
			var vs []float64
			for _, e := range r.Entries() {
				md, err := r.Matrix(e.Name)
				if err != nil {
					return nil, err
				}
				s := r.SimMultiDev(md, t, spmvK, devs, PartRowBlock)
				vs = append(vs, multidev.NormalizedRuntime(d, s, spmvK, md.N, md.NNZ))
			}
			row = append(row, report.X(metrics.Mean(vs)))
		}
		for _, devs := range MultiDevKs {
			d := r.cfg.Device.WithDevices(devs)
			var vs []float64
			for _, e := range included {
				md, err := r.Matrix(e.Name)
				if err != nil {
					return nil, err
				}
				s := r.SimMultiDev(md, t, spgemmK, devs, PartRowBlock)
				vs = append(vs, multidev.NormalizedRuntime(d, s, md.SpGEMMKernel(false), md.N, md.NNZ))
			}
			row = append(row, report.X(metrics.Mean(vs)))
		}
		tb.Add(row...)
	}
	if len(skipped) > 0 {
		tb.Note(fmt.Sprintf("SpGEMM flop budget: %d matrices skipped: %s", len(skipped), strings.Join(skipped, ", ")))
	}
	tb.Note(fmt.Sprintf("each of K devices owns 1/K of the L2 and 1/K of the bandwidth; remote lines cost %.0fx",
		r.cfg.Device.RemotePenalty))
	tb.Note("K=1 is the flat single-L2 path (bit-identical to the Table IV simulations)")
	return tb, nil
}

// AblMultiDev is the help-or-hurt ablation the ROADMAP asks for: RANDOM
// vs the community reorderings at K=4 and K=16, under both the
// community-oblivious row-block split and the community-aligned split,
// reporting per-device traffic, remote-traffic fraction, and load
// imbalance. If community reordering helps under partitioning, RABBIT's
// rows must show lower remote fractions than RANDOM's at equal K.
func AblMultiDev(r *Runner) (*report.Table, error) {
	techs := []reorder.Technique{
		reorder.Random{Seed: 0xC0FFEE},
		reorder.Rabbit{},
		reorder.RabbitPP{},
	}
	parts := []string{PartRowBlock, PartCommunity}
	ks := []int{4, 16}
	tb := report.New("Ablation: multi-device partition interaction (SpMV)",
		"matrix", "technique", "K", "partition", "traffic", "remote%", "imbalance", "max-dev", "mean-dev")
	err := ablate(r, tb, pickEntries(r, 3), func(md *MatrixData) ([][]string, error) {
		var out [][]string
		for _, t := range techs {
			for _, k := range ks {
				for _, part := range parts {
					s := r.SimMultiDev(md, t, SpMV, k, part)
					out = append(out, []string{md.Entry.Name, t.Name(), fmt.Sprintf("%d", k), part,
						report.X(gpumodel.NormalizedTraffic(s.Flat(), SpMV, md.N, md.NNZ)),
						report.Pct(s.RemoteFraction()),
						report.F(s.Imbalance()),
						report.Bytes(s.MaxDeviceTrafficBytes()),
						report.Bytes(int64(s.MeanDeviceTrafficBytes()))})
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	tb.Note("remote%% is the fraction of DRAM traffic crossing the interconnect; imbalance is max/mean device bytes")
	tb.Note("community packs whole RABBIT clusters per device; rowblock cuts the reordered matrix into equal stripes")
	return tb, nil
}
