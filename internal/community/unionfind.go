// Package community provides community detection (Louvain) and the
// community-quality metrics the paper uses to explain reordering
// effectiveness: modularity, insularity, insular-node identification, and
// community size statistics (Section V).
//
//repro:deterministic
package community

// UnionFind is a disjoint-set forest with path halving and union by size.
type UnionFind struct {
	parent []int32
	size   []int32
	sets   int32
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int32) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		size:   make([]int32, n),
		sets:   n,
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets containing a and b and returns the surviving root.
// When the sets differ in size the larger root survives; this keeps
// small-to-large merging cheap for callers that attach data to roots.
func (uf *UnionFind) Union(a, b int32) int32 {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return ra
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.sets--
	return ra
}

// UnionInto merges b's set into a's set keeping a's root as the survivor
// regardless of size. Rabbit's dendrogram requires the merge target to stay
// the representative.
func (uf *UnionFind) UnionInto(a, b int32) int32 {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.sets--
	return ra
}

// SetSize returns the size of x's set.
func (uf *UnionFind) SetSize(x int32) int32 { return uf.size[uf.Find(x)] }

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int32 { return uf.sets }

// Labels returns a dense community labelling: one label in [0, Sets()) per
// element, with elements in the same set sharing a label. Labels are
// numbered in order of first appearance.
func (uf *UnionFind) Labels() []int32 {
	labels := make([]int32, len(uf.parent))
	rootLabel := make([]int32, len(uf.parent))
	for i := range rootLabel {
		rootLabel[i] = -1
	}
	next := int32(0)
	for i := range uf.parent {
		r := uf.Find(int32(i))
		if rootLabel[r] < 0 {
			rootLabel[r] = next
			next++
		}
		labels[i] = rootLabel[r]
	}
	return labels
}
