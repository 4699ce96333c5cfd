// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run id[,id...]] [-corpus small|full] [-matrices a,b,c]
//	            [-workers n] [-impl fast|reference] [-csv] [-v]
//
// Run "experiments -list" for the experiment inventory. With no -run flag
// every experiment runs, sharing one corpus and its cached intermediate
// results (RABBIT detections, permutations, cache simulations).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/gpumodel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		corpus   = flag.String("corpus", "full", "corpus preset: small or full")
		matrices = flag.String("matrices", "", "comma-separated corpus subset (default: all 50)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		ablate   = flag.Bool("ablations", false, "run the ablation suite instead of the paper experiments")
		outdir   = flag.String("outdir", "", "also write each result as <outdir>/<id>.csv")
		workers  = flag.Int("workers", 0, "concurrent simulation workers (0 = all CPUs, 1 = serial)")
		verbose  = flag.Bool("v", false, "log per-matrix progress to stderr")
		list     = flag.Bool("list", false, "list experiments and corpus matrices, then exit")
		impl     = flag.String("impl", "fast", "cache simulator implementation: fast or reference (differential check)")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Paper)
		}
		fmt.Println("ablations (beyond the paper; run with -run or -ablations):")
		for _, e := range experiments.Ablations() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Paper)
		}
		fmt.Println("corpus matrices:")
		for _, e := range gen.Corpus() {
			fmt.Printf("  %-24s %-14s %s\n", e.Name, e.Family, e.Source)
		}
		return nil
	}

	preset, err := gen.ParsePreset(*corpus)
	if err != nil {
		return err
	}
	cfg := experiments.FullConfig()
	if preset == gen.Small {
		cfg = experiments.SmallConfig()
	}
	if cfg.Matrices, err = gen.ParseMatrices(*matrices); err != nil {
		return err
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	cfg.Workers = *workers
	simImpl, err := cachesim.ParseImpl(*impl)
	if err != nil {
		return err
	}
	cfg.Impl = simImpl
	runner := experiments.NewRunner(cfg)

	fmt.Printf("# corpus=%s device=%q matrices=%d workers=%d\n",
		cfg.Preset, cfg.Device.Name, len(runner.Entries()), runner.Workers())
	_ = gpumodel.A6000() // keep the real spec linked for -list users reading the source

	render := func(tb interface {
		Render(io.Writer) error
		RenderCSV(io.Writer) error
	}) error {
		if *csv {
			return tb.RenderCSV(os.Stdout)
		}
		return tb.Render(os.Stdout)
	}

	if *runIDs == "" {
		if *csv {
			return fmt.Errorf("-csv requires -run with explicit ids")
		}
		set := experiments.Registry()
		runAll := experiments.RunAll
		if *ablate {
			set = experiments.Ablations()
			runAll = experiments.RunAblations
		}
		if err := runAll(runner, os.Stdout); err != nil {
			return err
		}
		if *outdir != "" {
			// Results are cached in the runner, so the export re-renders
			// without re-simulating.
			return experiments.Export(set, runner, *outdir)
		}
		return nil
	}
	for _, id := range strings.Split(*runIDs, ",") {
		e, err := experiments.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		fmt.Printf("\n# %s [%s]\n", e.Paper, e.ID)
		tb, err := e.Run(runner)
		if err != nil {
			return err
		}
		if err := render(tb); err != nil {
			return err
		}
	}
	return nil
}
