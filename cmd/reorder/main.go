// Command reorder applies a matrix reordering technique to a MatrixMarket
// file and writes the reordered matrix (and optionally the permutation).
//
// Usage:
//
//	reorder -in a.mtx -out b.mtx [-technique RABBIT++] [-workers N] [-perm p.txt] [-stats]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reorder:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "input MatrixMarket file (required)")
		out     = flag.String("out", "", "output MatrixMarket file (required)")
		tech    = flag.String("technique", "RABBIT++", "reordering technique (see -list)")
		perm    = flag.String("perm", "", "also write the old->new permutation, one entry per line")
		stats   = flag.Bool("stats", false, "print community-quality statistics")
		list    = flag.Bool("list", false, "list available techniques and exit")
		workers = flag.Int("workers", 1, "goroutines for parallel techniques (result is identical at any count)")
	)
	flag.Parse()
	if *list {
		for _, t := range reorder.All() {
			fmt.Println(t.Name())
		}
		return nil
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	t, err := reorder.ByNameCtx(*tech)
	if err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	m, err := sparse.ReadMatrixMarket(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *in, err)
	}
	if !m.IsSquare() {
		return fmt.Errorf("%s: reordering requires a square matrix, got %dx%d", *in, m.NumRows, m.NumCols)
	}

	start := time.Now()
	p, err := reorder.OrderWith(context.Background(), t, m, reorder.Options{Workers: *workers})
	if err != nil {
		return fmt.Errorf("%s: %w", t.Name(), err)
	}
	elapsed := time.Since(start)
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%s produced an invalid permutation: %w", t.Name(), err)
	}
	pm := m.PermuteSymmetric(p)
	fmt.Printf("%s: %d rows, %d nnz, reordered with %s in %v (bandwidth %d -> %d)\n",
		*in, m.NumRows, m.NNZ(), t.Name(), elapsed.Round(time.Millisecond), m.Bandwidth(), pm.Bandwidth())

	if *stats {
		rr := core.Rabbit(m)
		cs := core.Analyze(m, rr.Communities)
		fmt.Printf("communities=%d insularity=%.3f modularity=%.3f insular-nodes=%.1f%% skew=%.1f%% largest=%.1f%%\n",
			cs.Communities, cs.Insularity, cs.Modularity,
			100*cs.InsularNodeFraction, 100*cs.Skew, 100*cs.LargestCommunityFraction)
	}

	g, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := sparse.WriteMatrixMarket(g, pm); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	if *perm != "" {
		pf, err := os.Create(*perm)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(pf)
		for _, v := range p {
			fmt.Fprintln(w, v)
		}
		if err := w.Flush(); err != nil {
			pf.Close()
			return err
		}
		if err := pf.Close(); err != nil {
			return err
		}
	}
	return nil
}
