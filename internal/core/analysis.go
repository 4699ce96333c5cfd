package core

import (
	"repro/internal/community"
	"repro/internal/quality"
	"repro/internal/sparse"
)

// CommunityStats summarizes the community-quality metrics the paper uses in
// Section V to explain when RABBIT succeeds.
type CommunityStats struct {
	// Insularity is the fraction of nonzeros whose endpoints share a
	// community.
	Insularity float64
	// Modularity is the Newman–Girvan modularity of the detected
	// communities.
	Modularity float64
	// InsularNodeFraction is the fraction of nodes with no
	// inter-community edges (Figure 4).
	InsularNodeFraction float64
	// AvgCommunitySizeNorm is the mean community size divided by the node
	// count; the paper correlates this with insularity (Pearson ≈ −0.47).
	AvgCommunitySizeNorm float64
	// LargestCommunityFraction is the largest community's share of all
	// nodes; ~0.98 for mawi, diagnosing its anomaly.
	LargestCommunityFraction float64
	// Skew is the fraction of nonzeros owned by the top 10% most
	// connected rows (Section V-B).
	Skew float64
	// Communities is the number of detected communities.
	Communities int32
}

// Analyze computes the community-quality statistics of a detection result
// over the matrix it was detected on.
func Analyze(m *sparse.CSR, a community.Assignment) CommunityStats {
	return CommunityStats{
		Insularity:               community.Insularity(m, a),
		Modularity:               community.Modularity(m, a),
		InsularNodeFraction:      community.InsularFraction(m, a),
		AvgCommunitySizeNorm:     a.AverageSize() / float64(m.NumRows),
		LargestCommunityFraction: a.LargestFraction(),
		Skew:                     quality.DegreeSkew(m),
		Communities:              a.Count,
	}
}

// DendrogramDepth returns the maximum merge-tree depth of the RABBIT
// result. RABBIT was designed to map hierarchical communities onto
// hierarchical caches (Section V-A); the dendrogram depth measures how
// much hierarchy the detection actually found: 0 for all-singleton
// detection, deeper trees for nested community structure.
func (rr *RabbitResult) DendrogramDepth() int {
	depth := make([]int, len(rr.Parent))
	for i := range depth {
		depth[i] = -1
	}
	var depthOf func(v int32) int
	depthOf = func(v int32) int {
		if depth[v] >= 0 {
			return depth[v]
		}
		if rr.Parent[v] == -1 {
			depth[v] = 0
		} else {
			depth[v] = depthOf(rr.Parent[v]) + 1
		}
		return depth[v]
	}
	max := 0
	for v := range rr.Parent {
		if d := depthOf(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// SubtreeSizes returns, for every vertex, the number of vertices in its
// dendrogram subtree (itself included). Roots carry their community sizes;
// inner values expose the nested sub-community structure RABBIT's DFS
// ordering lays out contiguously.
func (rr *RabbitResult) SubtreeSizes() []int32 {
	n := len(rr.Parent)
	sizes := make([]int32, n)
	for i := range sizes {
		sizes[i] = 1
	}
	// Children merge into their parents in merge order; accumulate bottom-up by
	// processing vertices in reverse topological order. Parents always
	// have a dendrogram path to a root, so repeated passes are unneeded:
	// children were merged strictly before their parents grew, and the
	// DFS order in Perm is a valid topological order (parents precede
	// children). Walk it backwards.
	order := make([]int32, n)
	for old, new := range rr.Perm {
		order[new] = int32(old)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		if p := rr.Parent[v]; p != -1 {
			sizes[p] += sizes[v]
		}
	}
	return sizes
}
