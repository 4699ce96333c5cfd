// Package core implements the paper's primary contribution: the RABBIT
// community-based matrix reordering (Arai et al., IPDPS'16, reimplemented
// from scratch) and the paper's enhanced RABBIT++ variant, which
// additionally groups insular nodes and hub nodes (Section VI).
//
//repro:deterministic
package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/check"
	"repro/internal/community"
	"repro/internal/sparse"
)

// cancelStride is how many merge-loop iterations run between cooperative
// cancellation checks. Each iteration touches one vertex's aggregated
// adjacency, so the stride bounds post-cancellation latency to a few
// hundred adjacency scans.
const cancelStride = 256

// gainEps is the tolerance for modularity-gain ties. Gains are sums of
// O(n) float64 terms, so exact equality between two candidates is
// evaluation-order luck; anything within gainEps is treated as a tie and
// broken deterministically by community ID.
const gainEps = 1e-12

// RabbitResult carries everything RABBIT produces: the new ordering, the
// detected community assignment, and the dendrogram (merge forest) that the
// ordering is a DFS of.
type RabbitResult struct {
	Perm        sparse.Permutation
	Communities community.Assignment
	// Parent[v] is the vertex v's community was merged into, or -1 for
	// community roots.
	Parent []int32
}

// edge is one aggregated adjacency entry of a community root. The target
// may go stale as roots merge; it is re-resolved (and the list compacted)
// whenever the root is visited. Weights count merged unit edges, so they
// are exact integers bounded by the nonzero count, and float64(w) equals
// the float64 sum of the same unit weights.
type edge struct {
	to int32
	w  int32
}

// Rabbit performs community detection by incremental aggregation and
// derives a vertex ordering from the resulting dendrogram.
//
// The algorithm visits vertices in increasing order of degree. Each visited
// vertex (together with the community it currently represents) merges into
// the neighboring community that maximizes the modularity gain
//
//	ΔQ(u, v) = 2·( w_uv/(2m) − (d_u/(2m))·(d_v/(2m)) )
//
// provided the best gain is positive. Merges are recorded as dendrogram
// edges; the final ordering assigns consecutive new IDs by depth-first
// traversal of each community's dendrogram, which lays every community (and
// recursively every sub-community) out contiguously — the property that
// maps hierarchical community structure onto the cache hierarchy.
func Rabbit(m *sparse.CSR) *RabbitResult {
	return RabbitResolution(m, 1.0)
}

// RabbitCtx is Rabbit with cooperative cancellation: the merge loop checks
// ctx every cancelStride vertices and returns ctx.Err() if the context is
// done. A nil error guarantees a result identical to Rabbit's.
func RabbitCtx(ctx context.Context, m *sparse.CSR) (*RabbitResult, error) {
	return RabbitResolutionCtx(ctx, m, 1.0)
}

// RabbitResolution runs RABBIT with a resolution multiplier γ on the null
// model term: merges require w_uv/(2m) > γ·(d_u d_v)/(2m)². γ = 1 is
// standard modularity; γ > 1 favors more, smaller communities and γ < 1
// fewer, larger ones (the resolution-limit knob, probed by the
// abl-resolution experiment).
func RabbitResolution(m *sparse.CSR, gamma float64) *RabbitResult {
	// A background context never cancels, so the error path is unreachable.
	rr, _ := RabbitResolutionCtx(context.Background(), m, gamma)
	return rr
}

// RabbitResolutionCtx is RabbitResolution with cooperative cancellation.
// The visit loop checks ctx every cancelStride vertices; on cancellation it
// abandons the partial dendrogram and returns (nil, ctx.Err()).
func RabbitResolutionCtx(ctx context.Context, m *sparse.CSR, gamma float64) (*RabbitResult, error) {
	if !m.IsSquare() {
		panic("core: Rabbit requires a square matrix")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sym := m.Symmetrize()
	n := sym.NumRows
	strength, m2 := strengths(sym)
	uf := community.NewUnionFind(n)
	d := newDendrogram(n)
	if m2 > 0 {
		order := byStrength(identity(n), strength)
		if err := mergeLoop(ctx, localAdjacency(sym, 0, n), order, uf, 0, gamma, m2, strength, d); err != nil {
			return nil, err
		}
	}
	return d.result(uf), nil
}

// strengths returns every vertex's strength (total degree, self-loops
// excluded) in the symmetrized matrix, and 2m, the sum of strengths.
func strengths(sym *sparse.CSR) ([]int32, float64) {
	strength := make([]int32, sym.NumRows)
	var m2 float64
	for v := range strength {
		cols, _ := sym.Row(int32(v))
		for _, c := range cols {
			if c != int32(v) {
				strength[v]++
			}
		}
		m2 += float64(strength[v])
	}
	return strength, m2
}

// graph is the merge loop's starting graph: vertex v's unit edges fill
// edges[off[v]:off[v+1]], one flat array for all vertices.
type graph struct {
	edges []edge
	off   []int32
}

// localAdjacency builds the graph on the vertices [lo, hi) of sym: vertex
// v gets a unit edge to each of its neighbours in the range other than
// itself, in column order, with every ID shifted down by lo.
func localAdjacency(sym *sparse.CSR, lo, hi int32) graph {
	g := graph{
		edges: make([]edge, 0, sym.RowOffsets[hi]-sym.RowOffsets[lo]),
		off:   make([]int32, hi-lo+1),
	}
	for v := lo; v < hi; v++ {
		cols, _ := sym.Row(v)
		for _, c := range cols {
			if c != v && c >= lo && c < hi {
				g.edges = append(g.edges, edge{to: c - lo, w: 1})
			}
		}
		g.off[v-lo+1] = check.SafeInt32(len(g.edges))
	}
	return g
}

// identity returns the vertex IDs 0..n-1 in order.
func identity(n int32) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// byStrength sorts vs by increasing key[v], keeping the given order among
// equal keys, and returns it. Keys are integer strengths, so a counting
// sort does it in linear time; a key range much wider than vs (a shard
// holding a hub, a coarse merge over a few heavy roots) falls back to a
// comparison sort rather than allocate a count per possible strength.
func byStrength(vs []int32, key []int32) []int32 {
	var hi int32
	for _, v := range vs {
		hi = max(hi, key[v])
	}
	if int(hi) > 4*len(vs) {
		slices.SortStableFunc(vs, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
		return vs
	}
	start := make([]int32, hi+2)
	for _, v := range vs {
		start[key[v]+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	sorted := make([]int32, len(vs))
	for _, v := range vs {
		sorted[start[key[v]]] = v
		start[key[v]]++
	}
	return sorted
}

// mergeLoop is RABBIT's aggregation step, the one copy shared by the
// sequential detection and both phases of RabbitSharded. It visits the
// vertices of order, each a community root on its visit; a visited root
// merges into the neighbouring root r that maximizes
//
//	ΔQ(v, r) = 2·( w_vr/(2m) − γ·(d_v/(2m))·(d_r/(2m)) )
//
// when that gain is positive, ties within gainEps going to the lower ID.
// g and uf use local vertex IDs; local vertex v is base+v in strength and
// the dendrogram, which lets a shard run on its own slice of those arrays.
// The loop checks ctx every cancelStride visits.
//
// A root's aggregated adjacency is a chain of edge segments: its own
// region of g.edges, then the region of each root merged into it, in
// merge order. A visit reads the chain, then writes the compacted list
// back over the same segments, and a merge links the merged root's chain
// onto the target's tail, so the loop never copies a list or allocates.
// The chain keeps the edge back to the target, which the target's own
// visit skips like every other internal edge.
func mergeLoop(ctx context.Context, g graph, order []int32, uf *community.UnionFind, base int32, gamma, m2 float64, strength []int32, d *dendrogram) error {
	n := len(g.off) - 1
	// length[s] is the used part of segment s; nextSeg[s] is the segment
	// after s in its chain (-1 at the tail); tail[r] ends root r's chain.
	length := make([]int32, n)
	nextSeg := make([]int32, n)
	tail := make([]int32, n)
	for v := range length {
		length[v] = g.off[v+1] - g.off[v]
		nextSeg[v] = -1
		tail[v] = int32(v)
	}
	// Epoch-stamped accumulator: weightTo[r] is valid iff stamp[r] equals
	// the current epoch; touched lists the valid roots in first-touch
	// order, keeping everything deterministic.
	weightTo := make([]int32, n)
	stamp := make([]int32, n)
	visited := make([]bool, n)
	touched := make([]int32, 0, 64)
	var epoch int32
	for i, v := range order {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// v is always a root here: merge sources are processed once and
		// merge targets remain roots.
		visited[v] = true
		epoch++
		touched = touched[:0]
		for s := v; s != -1; s = nextSeg[s] {
			for _, e := range g.edges[g.off[s] : g.off[s]+length[s]] {
				r := uf.Find(e.to)
				if r == v {
					continue
				}
				if stamp[r] != epoch {
					stamp[r] = epoch
					weightTo[r] = 0
					touched = append(touched, r)
				}
				weightTo[r] += e.w
			}
		}

		var best int32 = -1
		bestGain := 0.0
		dv := float64(strength[base+v]) / m2
		for _, r := range touched {
			gain := 2 * (float64(weightTo[r])/m2 - gamma*dv*(float64(strength[base+r])/m2))
			delta := gain - bestGain
			if delta > gainEps || (delta > -gainEps && gain > gainEps && best >= 0 && r < best) {
				bestGain = gain
				best = r
			}
		}
		if best < 0 || bestGain <= 0 {
			continue
		}
		u := best
		uf.UnionInto(u, v)
		strength[base+u] += strength[base+v]
		d.link(base+u, base+v)
		// A root's chain is read only on its own visit, so a merge into an
		// already visited root needs no edges.
		if visited[u] {
			continue
		}
		// Compact v's chain to the resolved roots, segment by segment, so
		// stale entries cannot accumulate across merge generations, then
		// hand it to u.
		last, k := v, 0
		for s := v; k < len(touched); s = nextSeg[s] {
			seg := g.edges[g.off[s]:g.off[s+1]]
			w := min(len(seg), len(touched)-k)
			for j, r := range touched[k : k+w] {
				seg[j] = edge{to: r, w: weightTo[r]}
			}
			length[s] = int32(w)
			k += w
			last = s
		}
		nextSeg[tail[u]] = v
		nextSeg[last] = -1
		tail[u] = last
	}
	return nil
}

// dendrogram is the merge forest the ordering is a DFS of. parent[v] is
// the vertex v was merged into, or -1 for a root; each vertex's children
// form a list from head through next, the latest merge first.
type dendrogram struct {
	parent, head, next []int32
}

func newDendrogram(n int32) *dendrogram {
	d := &dendrogram{parent: make([]int32, n), head: make([]int32, n), next: make([]int32, n)}
	for i := range d.parent {
		d.parent[i], d.head[i], d.next[i] = -1, -1, -1
	}
	return d
}

// link records that v merged into u.
func (d *dendrogram) link(u, v int32) {
	d.parent[v] = u
	d.next[v] = d.head[u]
	d.head[u] = v
}

// result numbers the vertices by depth-first traversal of the forest,
// roots in ascending ID order and each vertex's children in merge order,
// and labels communities by union-find root. uf.Labels is already dense in
// first-appearance order, so the labels need no renumbering.
func (d *dendrogram) result(uf *community.UnionFind) *RabbitResult {
	n := check.SafeInt32(len(d.parent))
	perm := make(sparse.Permutation, n)
	var next int32
	stack := make([]int32, 0, 64)
	for v := int32(0); v < n; v++ {
		if d.parent[v] != -1 {
			continue
		}
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			perm[x] = next
			next++
			// Pushing the latest merge first pops the earliest first.
			for c := d.head[x]; c != -1; c = d.next[c] {
				stack = append(stack, c)
			}
		}
	}
	return &RabbitResult{
		Perm:        check.Perm(perm),
		Communities: community.Assignment{Of: uf.Labels(), Count: uf.Sets()},
		Parent:      d.parent,
	}
}
