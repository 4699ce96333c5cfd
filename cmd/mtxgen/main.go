// Command mtxgen materializes corpus matrices as MatrixMarket files.
//
// Usage:
//
//	mtxgen -out dir [-corpus small|full] [-matrices a,b,c]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtxgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out      = flag.String("out", "", "output directory (required)")
		corpus   = flag.String("corpus", "small", "corpus preset: small or full")
		matrices = flag.String("matrices", "", "comma-separated subset (default: all 50)")
	)
	flag.Parse()
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	preset, err := gen.ParsePreset(*corpus)
	if err != nil {
		return err
	}
	names, err := gen.ParseMatrices(*matrices)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, e := range gen.Corpus() {
		if names != nil && !slices.Contains(names, e.Name) {
			continue
		}
		m := e.Generate(preset)
		path := filepath.Join(*out, e.Name+".mtx")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sparse.WriteMatrixMarket(f, m); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%-24s %8d rows %10d nnz -> %s\n", e.Name, m.NumRows, m.NNZ(), path)
	}
	return nil
}
