package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/community"
	"repro/internal/sparse"
)

// RabbitSharded is the parallel tier of the RABBIT aggregation: community
// detection runs independently on stable contiguous vertex shards
// (community.Shards), and the shard-local dendrograms are then joined by a
// sequential coarse merge pass over the surviving community roots.
//
// Determinism is by construction, not by luck: shard boundaries are a pure
// function of the vertex count, workers only decide which goroutine
// processes which shard (every per-shard result lands in its own slot),
// and the coarse merge visits roots in a canonical order (ascending
// aggregated strength, ties by vertex ID) with the same gainEps
// tie-breaking as the sequential merge loop. The permutation is therefore
// byte-identical at every worker count — the property the worker-count
// determinism matrix pins.
func RabbitSharded(m *sparse.CSR, workers int) *RabbitResult {
	// A background context never cancels, so the error path is unreachable.
	rr, _ := RabbitShardedCtx(context.Background(), m, workers)
	return rr
}

// RabbitShardedCtx is RabbitSharded with cooperative cancellation: both
// the shard-local loops and the coarse merge check ctx every cancelStride
// vertices. A nil error guarantees a result identical to RabbitSharded's.
func RabbitShardedCtx(ctx context.Context, m *sparse.CSR, workers int) (*RabbitResult, error) {
	if !m.IsSquare() {
		panic("core: RabbitSharded requires a square matrix")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sym := m.Symmetrize()
	n := sym.NumRows
	strength, m2 := strengths(sym)
	d := newDendrogram(n)
	uf := community.NewUnionFind(n)
	if m2 == 0 {
		return d.result(uf), nil
	}

	shards := community.Shards(n)
	workers = max(1, min(workers, len(shards)))

	// Phase 1: shard-local aggregation over intra-shard edges, with the
	// full-graph strengths and m2 so gains are comparable across shards.
	// Shard i is handled by worker i%workers; every shared write (strength
	// and the dendrogram) is at a shard-owned index, so no ordering between
	// goroutines can become visible in the result.
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for si := wi; si < len(shards); si += workers {
				sh := shards[si]
				order := byStrength(identity(sh.Len()), strength[sh.Lo:sh.Hi])
				errs[si] = mergeLoop(ctx, localAdjacency(sym, sh.Lo, sh.Hi), order,
					community.NewUnionFind(sh.Len()), sh.Lo, 1, m2, strength, d)
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Replay the shard merges into one union-find. Every set's root ends
	// up its dendrogram root whatever the replay order, so the global
	// community structure is independent of goroutine scheduling.
	for v, p := range d.parent {
		if p != -1 {
			uf.UnionInto(p, int32(v))
		}
	}

	// Phase 2: one more merge pass over the shard-local roots, visited by
	// increasing aggregated strength (ties by ID), using the cross-root
	// edges phase 1 ignored (cut edges plus intra-shard edges between
	// different local communities). Its merges extend the same vertex-level
	// dendrogram, so the final DFS needs no special casing for the levels.
	var roots []int32
	for v, p := range d.parent {
		if p == -1 {
			roots = append(roots, int32(v))
		}
	}
	if err := mergeLoop(ctx, rootAdjacency(sym, uf), byStrength(roots, strength), uf, 0, 1, m2, strength, d); err != nil {
		return nil, err
	}
	return d.result(uf), nil
}

// rootAdjacency builds the coarse merge's starting graph: every root gets
// a unit edge per nonzero (v, c) of sym whose endpoints lie in different
// communities with v in the root's, listed by v and then by column.
func rootAdjacency(sym *sparse.CSR, uf *community.UnionFind) graph {
	n := sym.NumRows
	root := make([]int32, n)
	for v := range root {
		root[v] = uf.Find(int32(v))
	}
	// start[r+1] counts root r's edges; the prefix sum turns it into the
	// start of r's region.
	start := make([]int32, n+1)
	for v := int32(0); v < n; v++ {
		cols, _ := sym.Row(v)
		for _, c := range cols {
			if c != v && root[c] != root[v] {
				start[root[v]+1]++
			}
		}
	}
	for r := int32(1); r <= n; r++ {
		start[r] += start[r-1]
	}
	edges := make([]edge, start[n])
	fill := slices.Clone(start[:n])
	for v := int32(0); v < n; v++ {
		cols, _ := sym.Row(v)
		for _, c := range cols {
			if c != v && root[c] != root[v] {
				edges[fill[root[v]]] = edge{to: root[c], w: 1}
				fill[root[v]]++
			}
		}
	}
	return graph{edges: edges, off: start}
}
