// Command cachesim reports the simulated L2 behaviour of a kernel over a
// MatrixMarket matrix under one or more reordering techniques.
//
// Usage:
//
//	cachesim -in a.mtx [-techniques RANDOM,RABBIT,RABBIT++]
//	         [-kernel spmv-csr|spmv-coo|spmm-4|spmm-256|spgemm|spgemm-cluster]
//	         [-l2 262144] [-line 128] [-ways 16] [-belady] [-workers n]
//	         [-impl fast|reference]
//	         [-devices K] [-partition rowblock|metis|community]
//
// Each row is one cell of the experiment Runner (internal/experiments) on
// the input matrix: the same ordering, reference stream, partitioner and
// simulator that produce the paper's tables. The cells run on the
// Runner's bounded worker pool (-workers, default all CPUs); the table
// rows keep the -techniques order regardless of completion order. -impl
// selects the simulator implementation: the arena/streaming fast path
// (default) or the seed reference implementation, which produces
// bit-identical numbers and exists for differential checks.
//
// -devices K > 1 switches to the multi-device model: the L2 splits into K
// private caches, rows are assigned to devices by -partition (over the
// reordered matrix; community packs the input's RABBIT communities,
// carried through each technique's permutation), and the table reports
// remote-traffic fraction and per-device load imbalance instead of dead
// lines. Belady and the spgemm-cluster kernel have no multi-device
// counterpart.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/gpumodel"
	"repro/internal/reorder"
	"repro/internal/report"
	"repro/internal/sparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "input MatrixMarket file (required)")
		techs   = flag.String("techniques", "ORIGINAL,RANDOM,RABBIT,RABBIT++", "comma-separated techniques")
		kernel  = flag.String("kernel", "spmv-csr", "kernel: spmv-csr, spmv-coo, spmm-4, spmm-256, spgemm, spgemm-cluster")
		l2      = flag.Int64("l2", 256<<10, "L2 capacity in bytes")
		line    = flag.Int64("line", 128, "cache line size in bytes")
		ways    = flag.Int("ways", 16, "associativity")
		belady  = flag.Bool("belady", false, "also simulate Belady-optimal replacement")
		workers = flag.Int("workers", 0, "concurrent technique simulations (0 = all CPUs, 1 = serial)")
		impl    = flag.String("impl", "fast", "simulator implementation: fast or reference (differential check)")
		devices = flag.Int("devices", 1, "simulated compute devices with private L2 slices (1 = flat single L2)")
		part    = flag.String("partition", "rowblock", "row->device partitioner for -devices > 1: rowblock, metis, community")
	)
	flag.Parse()
	simImpl, err := cachesim.ParseImpl(*impl)
	if err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	var k gpumodel.Kernel
	switch *kernel {
	case "spmv-csr":
		k = gpumodel.Kernel{Kind: gpumodel.SpMVCSR}
	case "spmv-coo":
		k = gpumodel.Kernel{Kind: gpumodel.SpMVCOO}
	case "spmm-4":
		k = gpumodel.Kernel{Kind: gpumodel.SpMMCSR, K: 4}
	case "spmm-256":
		k = gpumodel.Kernel{Kind: gpumodel.SpMMCSR, K: 256}
	case "spgemm":
		k = gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR}
	case "spgemm-cluster":
		k = gpumodel.Kernel{Kind: gpumodel.SpGEMMCSRCluster}
	default:
		return fmt.Errorf("unknown kernel %q", *kernel)
	}
	cfg := cachesim.Config{CapacityBytes: *l2, LineBytes: *line, Ways: int32(*ways)}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *devices < 1 {
		return fmt.Errorf("-devices must be >= 1, got %d", *devices)
	}
	if *devices > 1 {
		switch *part {
		case experiments.PartRowBlock, experiments.PartMetis, experiments.PartCommunity:
		default:
			return fmt.Errorf("unknown partitioner %q (want rowblock, metis, or community)", *part)
		}
		if *belady {
			return fmt.Errorf("-belady has no multi-device counterpart; drop it or use -devices 1")
		}
		if k.Kind == gpumodel.SpGEMMCSRCluster {
			return fmt.Errorf("kernel %s has no multi-device trace; use -kernel spgemm", *kernel)
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	m, err := sparse.ReadMatrixMarket(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	if !m.IsSquare() {
		return fmt.Errorf("every technique applies a symmetric permutation, but %s is %dx%d: %w",
			*in, m.NumRows, m.NumCols, sparse.ErrNotSquare)
	}
	var ts []reorder.Technique
	for _, name := range strings.Split(*techs, ",") {
		t, err := reorder.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ts = append(ts, t)
	}

	r := experiments.NewRunner(experiments.Config{
		Device:  gpumodel.Device{L2: cfg},
		Workers: *workers,
		Impl:    simImpl,
	})
	md := r.Add(*in, m)
	if k.Kind == gpumodel.SpGEMMCSR || k.Kind == gpumodel.SpGEMMCSRCluster {
		// The traffic model and the Belady trace bound need the product's
		// symbolic work terms.
		k = md.SpGEMMKernel(k.Kind == gpumodel.SpGEMMCSRCluster)
	}
	entries := []gen.Entry{md.Entry}
	units := experiments.SimUnits(entries, ts, k)
	switch {
	case *devices > 1:
		units = experiments.MultiDevUnits(entries, ts, []int{*devices}, *part, k)
	case *belady:
		units = append(units, experiments.BeladyUnits(entries, ts, k)...)
	}
	if err := r.Prefetch(units); err != nil {
		return err
	}

	cols := []string{"technique", "traffic", "hit-rate", "dead-lines"}
	title := fmt.Sprintf("%s on %s (%d rows, %d nnz), L2 %dKB", k.String(), *in, md.N, md.NNZ, *l2>>10)
	if *devices > 1 {
		cols = []string{"technique", "traffic", "hit-rate", "remote%", "imbalance", "max-dev"}
		title = fmt.Sprintf("%s, %d devices (%s split)", title, *devices, *part)
	}
	if *belady {
		cols = append(cols, "belady-traffic")
	}
	tb := report.New(title, cols...)
	for _, t := range ts {
		if *devices > 1 {
			s := r.SimMultiDev(md, t, k, *devices, *part)
			tb.Add(t.Name(),
				report.X(gpumodel.NormalizedTraffic(s.Flat(), k, md.N, md.NNZ)),
				report.Pct(s.Flat().HitRate()),
				report.Pct(s.RemoteFraction()),
				report.F(s.Imbalance()),
				report.Bytes(s.MaxDeviceTrafficBytes()))
			continue
		}
		s := r.SimLRU(md, t, k)
		row := []string{
			t.Name(),
			report.X(gpumodel.NormalizedTraffic(s, k, md.N, md.NNZ)),
			report.Pct(s.HitRate()),
			report.Pct(s.DeadLineFraction()),
		}
		if *belady {
			row = append(row, report.X(gpumodel.NormalizedTraffic(r.SimBelady(md, t, k), k, md.N, md.NNZ)))
		}
		tb.Add(row...)
	}
	tb.Note("traffic is normalized to the kernel's analytic compulsory traffic")
	return tb.Render(os.Stdout)
}
