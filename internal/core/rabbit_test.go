package core

import (
	"testing"
	"testing/quick"

	"repro/internal/community"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// twoCliques builds two k-cliques joined by one bridge edge.
func twoCliques(k int32) *sparse.CSR {
	coo := sparse.NewCOO(2*k, 2*k, int(4*k*k))
	for i := int32(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			coo.AddSym(i, j, 1)
			coo.AddSym(k+i, k+j, 1)
		}
	}
	coo.AddSym(0, k, 1)
	return coo.ToCSR()
}

func TestRabbitValidPermutation(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 1500, Communities: 15, AvgDegree: 10, Mu: 0.2}.Generate(1)
	rr := Rabbit(m)
	if err := rr.Perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := rr.Communities.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRabbitDetectsCliques(t *testing.T) {
	k := int32(12)
	m := twoCliques(k)
	rr := Rabbit(m)
	// Each clique must be a single community.
	for i := int32(1); i < k; i++ {
		if rr.Communities.Of[i] != rr.Communities.Of[0] {
			t.Fatal("Rabbit split clique A")
		}
		if rr.Communities.Of[k+i] != rr.Communities.Of[k] {
			t.Fatal("Rabbit split clique B")
		}
	}
	// Communities receive contiguous new IDs: the set of new IDs of clique
	// A members must be a contiguous range.
	checkContiguous := func(members []int32) {
		t.Helper()
		min, max := int32(1<<30), int32(-1)
		for _, v := range members {
			id := rr.Perm[v]
			if id < min {
				min = id
			}
			if id > max {
				max = id
			}
		}
		if max-min+1 != int32(len(members)) {
			t.Fatalf("community new IDs span [%d,%d] for %d members; not contiguous", min, max, len(members))
		}
	}
	var a, b []int32
	for v := int32(0); v < 2*k; v++ {
		if rr.Communities.Of[v] == rr.Communities.Of[0] {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	if rr.Communities.Of[0] != rr.Communities.Of[k] {
		checkContiguous(a)
		checkContiguous(b)
	}
}

func TestRabbitCommunitiesAreContiguousInNewOrder(t *testing.T) {
	// General property: after RABBIT, every community occupies a contiguous
	// ID range (that is what dendrogram DFS guarantees).
	m := gen.PlantedPartition{Nodes: 2000, Communities: 20, AvgDegree: 12, Mu: 0.15}.Generate(2)
	rr := Rabbit(m)
	inv := rr.Perm.Inverse()
	changes := 0
	for newID := 1; newID < len(inv); newID++ {
		if rr.Communities.Of[inv[newID]] != rr.Communities.Of[inv[newID-1]] {
			changes++
		}
	}
	if int32(changes) != rr.Communities.Count-1 {
		t.Fatalf("community labels change %d times along the new order; want %d (contiguous blocks)",
			changes, rr.Communities.Count-1)
	}
}

func TestRabbitHighInsularityOnPlanted(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 3000, Communities: 30, AvgDegree: 16, Mu: 0.05}.Generate(3)
	rr := Rabbit(m)
	ins := community.Insularity(m, rr.Communities)
	if ins < 0.8 {
		t.Fatalf("Rabbit insularity %.3f on mu=0.05 planted partition, want >= 0.8", ins)
	}
	q := community.Modularity(m, rr.Communities)
	if q < 0.5 {
		t.Fatalf("Rabbit modularity %.3f, want >= 0.5", q)
	}
}

func TestRabbitMawiAnomaly(t *testing.T) {
	// Giant-hub graphs force incremental aggregation to merge nearly
	// everything into one community: high insularity, no locality benefit —
	// the paper's mawi case (Section V-B).
	m := gen.HubStar{Nodes: 4000, Hubs: 1, HubConn: 0.95, Background: 80}.Generate(4)
	rr := Rabbit(m)
	stats := Analyze(m, rr.Communities)
	if stats.LargestCommunityFraction < 0.80 {
		t.Fatalf("largest community holds %.2f of a hub-star graph; expected near-total merge",
			stats.LargestCommunityFraction)
	}
	if stats.Insularity < 0.90 {
		t.Fatalf("hub-star insularity %.3f; expected high insularity despite useless communities",
			stats.Insularity)
	}
}

func TestRabbitDeterminism(t *testing.T) {
	m := gen.RMAT{LogNodes: 10, AvgDegree: 8, A: 0.55, B: 0.18, C: 0.18, Symmetric: true}.Generate(5)
	a, b := Rabbit(m), Rabbit(m)
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Fatalf("Rabbit is nondeterministic at vertex %d", i)
		}
	}
}

func TestRabbitEmptyAndSingleton(t *testing.T) {
	empty := &sparse.CSR{NumRows: 5, NumCols: 5, RowOffsets: make([]int32, 6)}
	rr := Rabbit(empty)
	if err := rr.Perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if rr.Communities.Count != 5 {
		t.Fatalf("empty matrix should stay as %d singleton communities, got %d", 5, rr.Communities.Count)
	}
	one := &sparse.CSR{NumRows: 1, NumCols: 1, RowOffsets: []int32{0, 1}, ColIndices: []int32{0}, Values: []float32{1}}
	rr = Rabbit(one)
	if len(rr.Perm) != 1 || rr.Perm[0] != 0 {
		t.Fatalf("singleton perm = %v", rr.Perm)
	}
}

func TestReorderDesignSpaceValidity(t *testing.T) {
	m := gen.HubbyCommunities{Nodes: 1200, Communities: 12, AvgDegree: 8, Mu: 0.25, Hubs: 40, HubDegree: 30}.Generate(6)
	rr := Rabbit(m)
	for _, groupIns := range []bool{false, true} {
		for _, hub := range []HubMode{HubNone, HubSort, HubGroup} {
			res := ModifyRabbit(m, rr, Options{GroupInsular: groupIns, Hub: hub})
			if err := res.Perm.Validate(); err != nil {
				t.Fatalf("insular=%v hub=%v: %v", groupIns, hub, err)
			}
			// Reordering preserves the nonzero count and structure validity.
			pm := m.PermuteSymmetric(res.Perm)
			if pm.NNZ() != m.NNZ() {
				t.Fatalf("insular=%v hub=%v: nnz changed", groupIns, hub)
			}
			if err := pm.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGroupInsularPutsInsularFirst(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 1000, Communities: 10, AvgDegree: 8, Mu: 0.3}.Generate(7)
	res := Reorder(m, Options{GroupInsular: true})
	// After grouping, all insular nodes must have smaller new IDs than all
	// non-insular nodes.
	var maxInsular, minNonInsular int32 = -1, 1 << 30
	nonInsularExists := false
	for v := int32(0); v < m.NumRows; v++ {
		id := res.Perm[v]
		if res.Insular[v] {
			if id > maxInsular {
				maxInsular = id
			}
		} else {
			nonInsularExists = true
			if id < minNonInsular {
				minNonInsular = id
			}
		}
	}
	if nonInsularExists && maxInsular > minNonInsular {
		t.Fatalf("insular nodes extend to ID %d but non-insular start at %d", maxInsular, minNonInsular)
	}
}

func TestHubGroupPutsHubsFirstKeepingOrder(t *testing.T) {
	m := gen.HubbyCommunities{Nodes: 1000, Communities: 10, AvgDegree: 8, Mu: 0.25, Hubs: 30, HubDegree: 40}.Generate(8)
	rr := Rabbit(m)
	grouped := ModifyRabbit(m, rr, Options{Hub: HubGroup})
	var hubIDs, rabbitHubIDs []int32
	for v := int32(0); v < m.NumRows; v++ {
		if grouped.Hub[v] {
			hubIDs = append(hubIDs, v)
		}
	}
	if len(hubIDs) == 0 {
		t.Fatal("no hubs detected in a hub-heavy graph")
	}
	// Hubs occupy the first len(hubIDs) new IDs.
	for _, v := range hubIDs {
		if int(grouped.Perm[v]) >= len(hubIDs) {
			t.Fatalf("hub %d has new ID %d beyond the hub prefix of %d", v, grouped.Perm[v], len(hubIDs))
		}
	}
	// Relative order among hubs matches RABBIT's. Sort hubs by their new
	// IDs in both orderings and compare sequences.
	rabbitHubIDs = append(rabbitHubIDs, hubIDs...)
	sortByPerm(hubIDs, grouped.Perm)
	sortByPerm(rabbitHubIDs, rr.Perm)
	for i := range hubIDs {
		if hubIDs[i] != rabbitHubIDs[i] {
			t.Fatal("HUBGROUP changed the relative order among hubs")
		}
	}
}

func TestHubSortOrdersByInDegree(t *testing.T) {
	m := gen.HubbyCommunities{Nodes: 1000, Communities: 10, AvgDegree: 8, Mu: 0.25, Hubs: 30, HubDegree: 40}.Generate(9)
	res := Reorder(m, Options{Hub: HubSort})
	inDeg := m.InDegrees()
	var hubs []int32
	for v := int32(0); v < m.NumRows; v++ {
		if res.Hub[v] {
			hubs = append(hubs, v)
		}
	}
	sortByPerm(hubs, res.Perm)
	for i := 1; i < len(hubs); i++ {
		if inDeg[hubs[i-1]] < inDeg[hubs[i]] {
			t.Fatalf("HUBSORT hub %d (deg %d) precedes hub %d (deg %d)",
				hubs[i-1], inDeg[hubs[i-1]], hubs[i], inDeg[hubs[i]])
		}
	}
}

func TestHubNodesThreshold(t *testing.T) {
	// Star: node 0 has in-degree 4, others 1; average degree = 8/5.
	coo := sparse.NewCOO(5, 5, 8)
	for v := int32(1); v < 5; v++ {
		coo.AddSym(0, v, 1)
	}
	m := coo.ToCSR()
	hub := HubNodes(m)
	if !hub[0] {
		t.Fatal("center of a star must be a hub")
	}
	for v := 1; v < 5; v++ {
		if hub[v] {
			t.Fatalf("leaf %d flagged as hub", v)
		}
	}
}

func TestQuickReorderPreservesSemantics(t *testing.T) {
	// SpMV semantics: y' = P·A·Pᵀ applied to P·x equals P·(A·x). Here we
	// check the pattern-level equivalent: the permuted matrix relates
	// entries exactly as the original (spot-check via round trip).
	f := func(seed uint64, modeRaw uint8) bool {
		m := gen.ErdosRenyi{Nodes: 300, AvgDegree: 6}.Generate(seed)
		opts := Options{GroupInsular: modeRaw&1 == 1, Hub: HubMode(modeRaw % 3)}
		res := Reorder(m, opts)
		if !res.Perm.IsValid() {
			return false
		}
		back := m.PermuteSymmetric(res.Perm).PermuteSymmetric(res.Perm.Inverse())
		return back.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRanges(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 800, Communities: 8, AvgDegree: 8, Mu: 0.2}.Generate(10)
	rr := Rabbit(m)
	s := Analyze(m, rr.Communities)
	if s.Insularity < 0 || s.Insularity > 1 {
		t.Fatalf("Insularity out of range: %v", s.Insularity)
	}
	if s.InsularNodeFraction < 0 || s.InsularNodeFraction > 1 {
		t.Fatalf("InsularNodeFraction out of range: %v", s.InsularNodeFraction)
	}
	if s.Skew < 0 || s.Skew > 1 {
		t.Fatalf("Skew out of range: %v", s.Skew)
	}
	if s.LargestCommunityFraction <= 0 || s.LargestCommunityFraction > 1 {
		t.Fatalf("LargestCommunityFraction out of range: %v", s.LargestCommunityFraction)
	}
	if s.Communities <= 0 || s.Communities > m.NumRows {
		t.Fatalf("Communities out of range: %v", s.Communities)
	}
}

// sortByPerm sorts vertices by their new IDs under p.
func sortByPerm(vs []int32, p sparse.Permutation) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && p[vs[j-1]] > p[vs[j]]; j-- {
			vs[j-1], vs[j] = vs[j], vs[j-1]
		}
	}
}

func TestRabbitResolutionControlsCommunityCount(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 2000, Communities: 20, AvgDegree: 12, Mu: 0.2}.Generate(12)
	coarse := RabbitResolution(m, 0.25)
	standard := RabbitResolution(m, 1.0)
	fine := RabbitResolution(m, 4.0)
	for _, rr := range []*RabbitResult{coarse, standard, fine} {
		if err := rr.Perm.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if coarse.Communities.Count > fine.Communities.Count {
		t.Fatalf("gamma=0.25 found %d communities, gamma=4 found %d; higher resolution must not merge more",
			coarse.Communities.Count, fine.Communities.Count)
	}
	if standard.Communities.Count != Rabbit(m).Communities.Count {
		t.Fatal("RabbitResolution(m, 1) must match Rabbit(m)")
	}
}

func TestDendrogramDepthAndSubtrees(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 1000, Communities: 10, AvgDegree: 10, Mu: 0.1}.Generate(13)
	rr := Rabbit(m)
	depth := rr.DendrogramDepth()
	if depth <= 0 {
		t.Fatalf("dendrogram depth = %d on a clustered graph, want > 0", depth)
	}
	sizes := rr.SubtreeSizes()
	// Root subtree sizes must equal community sizes.
	commSizes := rr.Communities.Sizes()
	rootTotal := int32(0)
	for v := int32(0); v < m.NumRows; v++ {
		if rr.Parent[v] == -1 {
			rootTotal += sizes[v]
			if sizes[v] != commSizes[rr.Communities.Of[v]] {
				t.Fatalf("root %d subtree %d != community size %d", v, sizes[v], commSizes[rr.Communities.Of[v]])
			}
		}
	}
	if rootTotal != m.NumRows {
		t.Fatalf("root subtrees cover %d of %d vertices", rootTotal, m.NumRows)
	}
}

func TestDendrogramDepthSingletons(t *testing.T) {
	empty := &sparse.CSR{NumRows: 6, NumCols: 6, RowOffsets: make([]int32, 7)}
	rr := Rabbit(empty)
	if rr.DendrogramDepth() != 0 {
		t.Fatalf("singleton forest depth = %d, want 0", rr.DendrogramDepth())
	}
}

// TestRabbitAllocsIndependentOfSize: the merge loop allocates its scratch
// once per call, never per vertex or per merge, so an 8× larger graph
// costs no more allocations beyond a few logarithmic scratch growths.
func TestRabbitAllocsIndependentOfSize(t *testing.T) {
	const slack = 4
	small := gen.PlantedPartition{Nodes: 1000, Communities: 10, AvgDegree: 8, Mu: 0.2}.Generate(1)
	large := gen.PlantedPartition{Nodes: 8000, Communities: 80, AvgDegree: 8, Mu: 0.2}.Generate(1)
	base := testing.AllocsPerRun(3, func() { Rabbit(small) })
	scaled := testing.AllocsPerRun(3, func() { Rabbit(large) })
	if scaled > base+slack {
		t.Errorf("%.0f allocations per call at %d rows, %.0f at %d rows", scaled, large.NumRows, base, small.NumRows)
	}
}
