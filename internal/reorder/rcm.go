package reorder

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/check"
	"repro/internal/sparse"
)

// RCM implements Reverse Cuthill–McKee, the classic bandwidth-reducing
// ordering (Karantasis et al., SC'14, cited by the paper as one of the
// techniques RABBIT was shown to match or exceed). It runs a BFS from a
// minimum-degree vertex of each connected component of the symmetrized
// pattern, visiting neighbors in increasing degree order, and reverses the
// final order.
type RCM struct{}

// Name implements Technique.
func (RCM) Name() string { return "RCM" }

// Order implements Technique.
func (r RCM) Order(m *sparse.CSR) sparse.Permutation {
	// A background context never cancels, so the error path is unreachable.
	p, _ := r.OrderCtx(context.Background(), m)
	return check.Perm(p)
}

// OrderCtx implements OrdererCtx: the BFS checks ctx every 1024 dequeued
// vertices, so a deadline interrupts even a single giant component's
// traversal.
func (RCM) OrderCtx(ctx context.Context, m *sparse.CSR) (sparse.Permutation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sym := m.Symmetrize()
	p, err := cuthillMcKee(ctx, sym, sym.Degrees(), func(seed int32) (int32, error) { return seed, nil })
	if err != nil {
		return nil, err
	}
	return check.Perm(p), nil
}

// cuthillMcKee is the BFS RCM and RCM++ share; they differ only in where
// each component's traversal starts. Components are discovered in
// ascending degree order (ties by ascending ID), and start maps the
// vertex that discovers a component to the vertex its BFS starts from.
// The BFS appends each dequeued vertex's unvisited neighbours in
// ascending degree order (ties in adjacency order, i.e. by ID) and checks
// ctx every 1024 dequeued vertices. The reversed visit order is the
// permutation.
func cuthillMcKee(ctx context.Context, sym *sparse.CSR, deg []int32, start func(seed int32) (int32, error)) (sparse.Permutation, error) {
	n := sym.NumRows
	byDeg := func(a, b int32) int { return cmp.Compare(deg[a], deg[b]) }
	byDegree := make([]int32, n)
	for i := range byDegree {
		byDegree[i] = int32(i)
	}
	slices.SortStableFunc(byDegree, byDeg)

	visited := make([]bool, n)
	// order doubles as the BFS queue: a component's vertices are appended
	// behind head, in the order they are dequeued.
	order := make([]int32, 0, n)
	for _, seed := range byDegree {
		if visited[seed] {
			continue
		}
		s, err := start(seed)
		if err != nil {
			return nil, err
		}
		visited[s] = true
		order = append(order, s)
		for head := len(order) - 1; head < len(order); head++ {
			if head%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			cols, _ := sym.Row(order[head])
			tail := len(order)
			for _, v := range cols {
				if !visited[v] {
					visited[v] = true
					order = append(order, v)
				}
			}
			slices.SortStableFunc(order[tail:], byDeg)
		}
	}
	slices.Reverse(order)
	return sparse.FromNewOrder(order), nil
}
