package quality_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

func chain(n int32) *sparse.CSR {
	coo := sparse.NewCOO(n, n, int(2*n))
	for i := int32(0); i+1 < n; i++ {
		coo.AddSym(i, i+1, 1)
	}
	return coo.ToCSR()
}

func TestAverageEdgeDistanceChain(t *testing.T) {
	m := chain(100)
	id := sparse.Identity(100)
	if got := quality.AverageEdgeDistance(m, id); got != 1 {
		t.Fatalf("chain identity distance = %v, want 1", got)
	}
	// Reversal preserves adjacency distances exactly.
	rev := make(sparse.Permutation, 100)
	for i := range rev {
		rev[i] = int32(99 - i)
	}
	if got := quality.AverageEdgeDistance(m, rev); got != 1 {
		t.Fatalf("chain reversed distance = %v, want 1", got)
	}
	// A random order scatters edges widely.
	rnd := reorder.Random{Seed: 1}.Order(m)
	if got := quality.AverageEdgeDistance(m, rnd); got < 10 {
		t.Fatalf("chain random distance = %v, want large", got)
	}
}

func TestGapProfileAndMean(t *testing.T) {
	m := chain(64)
	prof := quality.GapProfile(m, sparse.Identity(64))
	// All gaps are exactly 1 -> bucket Len64(1)=1.
	var total int64
	for b, c := range prof {
		total += c
		if c > 0 && b != 1 {
			t.Fatalf("gap mass in bucket %d, want all in bucket 1", b)
		}
	}
	if total != int64(m.NNZ()) {
		t.Fatalf("profile covers %d of %d nonzeros", total, m.NNZ())
	}
	if got := quality.MeanLog2Gap(prof); got != 1 {
		t.Fatalf("MeanLog2Gap = %v, want 1", got)
	}
	if quality.MeanLog2Gap(make([]int64, 34)) != 0 {
		t.Fatal("empty profile mean should be 0")
	}
}

func TestLinePackingPerfectAndScattered(t *testing.T) {
	// Star: one row references the line-aligned columns 0..31. With 128B
	// lines (32 elements) identity packs them into exactly 1 line; with
	// 32B lines (8 elements) into exactly 4.
	coo := sparse.NewCOO(64, 64, 32)
	for c := int32(0); c < 32; c++ {
		coo.Add(33, c, 1)
	}
	m := coo.ToCSR()
	if got := quality.LinePacking(m, sparse.Identity(64), 128); got != 1 {
		t.Fatalf("contiguous star packing at 128B = %v, want 1", got)
	}
	if got := quality.LinePacking(m, sparse.Identity(64), 32); got != 1 {
		t.Fatalf("contiguous star packing at 32B = %v, want 1", got)
	}
	// Stride the 32 referenced columns to every other slot: they then span
	// all 8 of the 8-element lines, exactly 2x the minimal 4.
	spread := make(sparse.Permutation, 64)
	for i := int32(0); i < 32; i++ {
		spread[i] = 2 * i
	}
	for i := int32(32); i < 64; i++ {
		spread[i] = 2*(i-32) + 1
	}
	if err := spread.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := quality.LinePacking(m, spread, 32); got != 0.5 {
		t.Fatalf("strided packing at 32B = %v, want 0.5", got)
	}
	rnd := reorder.Random{Seed: 3}.Order(m)
	if got := quality.LinePacking(m, rnd, 32); got >= 1 {
		t.Fatalf("scattered packing = %v, want < 1", got)
	}
}

func TestWindowedWorkingSetCommunityVsRandom(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 2048, Communities: 32, AvgDegree: 10, Mu: 0.05}.Generate(1)
	rabbit := reorder.Rabbit{}.Order(m)
	random := reorder.Random{Seed: 2}.Order(m)
	wr := quality.WindowedWorkingSet(m, rabbit, 64)
	wrnd := quality.WindowedWorkingSet(m, random, 64)
	if wr*2 > wrnd {
		t.Fatalf("rabbit working set %v vs random %v; community ordering must shrink the window footprint", wr, wrnd)
	}
}

func TestMeasureSummary(t *testing.T) {
	m := gen.Mesh2D{Width: 30, Height: 30}.Generate(2)
	s := quality.Measure(m, sparse.Identity(m.NumRows), 128, 32)
	if s.AvgEdgeDistance <= 0 || s.LinePacking <= 0 || s.WorkingSet <= 0 {
		t.Fatalf("summary has non-positive fields: %+v", s)
	}
	if s.LinePacking > 1.000001 {
		t.Fatalf("packing %v exceeds 1", s.LinePacking)
	}
	if nw := s.NormalizedWorkingSet(m.NumRows); nw <= 0 || nw > 1 {
		t.Fatalf("normalized working set %v out of (0,1]", nw)
	}
	if s.NormalizedWorkingSet(0) != 0 {
		t.Fatal("zero-dimension normalization should be 0")
	}
}

// bandwidthCorpus mirrors the square matrices of internal/sparse's wire
// test corpus (empty, empty rows, dense, duplicate-heavy, special values)
// and adds random graphs with empty rows and a hub.
func bandwidthCorpus() map[string]*sparse.CSR {
	dup := sparse.NewCOO(6, 6, 32)
	for i := 0; i < 4; i++ {
		dup.Add(1, 3, 0.25)
		dup.AddSym(2, int32(i), float32(i))
	}
	dense := sparse.NewCOO(5, 5, 25)
	for i := int32(0); i < 5; i++ {
		for j := int32(0); j < 5; j++ {
			dense.Add(i, j, float32(i*5+j)-12)
		}
	}
	specials := sparse.NewCOO(3, 3, 4)
	specials.Add(0, 0, float32(math.Inf(1)))
	specials.Add(1, 1, float32(math.NaN()))
	specials.Add(2, 0, -0.0)
	out := map[string]*sparse.CSR{
		"empty-0x0":  sparse.NewCOO(0, 0, 0).ToCSR(),
		"empty-rows": sparse.NewCOO(9, 9, 0).ToCSR(),
		"dense-5x5":  dense.ToCSR(),
		"dup-heavy":  dup.ToCSR(),
		"specials":   specials.ToCSR(),
		"mesh-12":    gen.Mesh2D{Width: 12, Height: 12}.Generate(1),
	}
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int32{1, 17, 200} {
		coo := sparse.NewCOO(n, n, 0)
		for k := rng.Intn(int(4*n) + 1); k > 0; k-- {
			coo.Add(rng.Int31n(n), rng.Int31n(n), 1)
		}
		hub := rng.Int31n(n)
		for c := int32(0); c < n; c += 3 {
			coo.Add(hub, c, 1)
		}
		out[fmt.Sprintf("random-%d", n)] = coo.ToCSR()
	}
	return out
}

// TestMeasureBandwidthMatchesPermutedMatrix checks Measure's bandwidth,
// computed from the permutation alone, against the bandwidth of the
// permuted matrix itself under the identity, a reversal, and random
// permutations.
func TestMeasureBandwidthMatchesPermutedMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, m := range bandwidthCorpus() {
		n := m.NumRows
		rev := make(sparse.Permutation, n)
		for i := range rev {
			rev[i] = n - 1 - int32(i)
		}
		perms := []sparse.Permutation{sparse.Identity(n), rev}
		for k := 0; k < 5; k++ {
			p := sparse.Identity(n)
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			perms = append(perms, p)
		}
		for i, p := range perms {
			got := quality.Measure(m, p, 128, 8).Bandwidth
			if want := m.PermuteSymmetric(p).Bandwidth(); got != want {
				t.Fatalf("%s, permutation %d: Measure bandwidth %d, permuted matrix's %d", name, i, got, want)
			}
		}
	}
}

func TestEmptyMatrixMetrics(t *testing.T) {
	m := &sparse.CSR{NumRows: 4, NumCols: 4, RowOffsets: make([]int32, 5)}
	id := sparse.Identity(4)
	if quality.AverageEdgeDistance(m, id) != 0 {
		t.Fatal("empty distance != 0")
	}
	if quality.LinePacking(m, id, 128) != 1 {
		t.Fatal("empty packing != 1")
	}
}

func TestQuickPackingAndGapBounds(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		m := gen.ErdosRenyi{Nodes: 300, AvgDegree: 5}.Generate(seed)
		p := reorder.Random{Seed: seed}.Order(m)
		if pk := quality.LinePacking(m, p, 128); pk <= 0 || pk > 1+1e-9 {
			t.Fatalf("seed %d: LinePacking = %v out of (0,1]", seed, pk)
		}
		prof := quality.GapProfile(m, p)
		var total int64
		for _, c := range prof {
			total += c
		}
		if total != int64(m.NNZ()) {
			t.Fatalf("seed %d: gap profile covers %d of %d nonzeros", seed, total, m.NNZ())
		}
		if g := quality.MeanLog2Gap(prof); g < 0 || g > 34 {
			t.Fatalf("seed %d: MeanLog2Gap = %v", seed, g)
		}
	}
}

func TestWorkingSetBounds(t *testing.T) {
	m := gen.PlantedPartition{Nodes: 500, Communities: 5, AvgDegree: 6, Mu: 0.2}.Generate(9)
	id := sparse.Identity(m.NumRows)
	ws := quality.WindowedWorkingSet(m, id, 50)
	if ws <= 0 || ws > float64(m.NumRows) {
		t.Fatalf("working set %v out of (0, N]", ws)
	}
	// Window of the whole matrix = total distinct referenced columns.
	whole := quality.WindowedWorkingSet(m, id, m.NumRows)
	distinct := map[int32]bool{}
	for _, c := range m.ColIndices {
		distinct[c] = true
	}
	if whole != float64(len(distinct)) {
		t.Fatalf("whole-matrix working set %v != distinct columns %d", whole, len(distinct))
	}
}

// star returns an n-node star: every node connects to node 0 (both ways),
// giving node 0 an in-degree of n-1.
func star(n int32) *sparse.CSR {
	coo := sparse.NewCOO(n, n, int(2*n))
	for i := int32(1); i < n; i++ {
		coo.AddSym(0, i, 1)
	}
	return coo.ToCSR()
}

func TestDegreeSkewStar(t *testing.T) {
	m := star(20)
	// Top 10% of 20 nodes = 2 nodes: the hub (in-degree 19) plus one leaf
	// (in-degree 1) own 20 of the 38 nonzeros.
	want := 20.0 / 38.0
	if got := quality.DegreeSkew(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("quality.DegreeSkew(star) = %v, want %v", got, want)
	}
}

func TestDegreeSkewFracColumnHeavy(t *testing.T) {
	// 4x4 with column 0 holding 4 of 6 nonzeros: the top 25% (1 column)
	// owns 4/6.
	coo := sparse.NewCOO(4, 4, 8)
	for i := int32(0); i < 4; i++ {
		coo.Add(i, 0, 1)
	}
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 1)
	m := coo.ToCSR()
	if skew := quality.DegreeSkewFrac(m, 0.25); skew < 0.66 || skew > 0.67 {
		t.Fatalf("quality.DegreeSkewFrac(0.25) = %v, want 4/6", skew)
	}
}

func TestDegreeSkewBoundsAndEmpty(t *testing.T) {
	if s := quality.DegreeSkew(&sparse.CSR{RowOffsets: []int32{0}}); s != 0 {
		t.Fatalf("quality.DegreeSkew(empty) = %v, want 0", s)
	}
	for seed := uint64(0); seed < 10; seed++ {
		m := gen.RMAT{LogNodes: 7, AvgDegree: 5, A: 0.5, B: 0.2, C: 0.2}.Generate(seed)
		s := quality.DegreeSkew(m)
		if s < 0 || s > 1 {
			t.Fatalf("seed %d: DegreeSkew = %v out of [0,1]", seed, s)
		}
	}
}

func TestTopFracMassDegenerate(t *testing.T) {
	if v := quality.TopFracMass(nil, 0, 0.1); v != 0 {
		t.Fatalf("quality.TopFracMass(nil) = %v, want 0", v)
	}
	// One entry always counts even when frac*len < 1.
	if v := quality.TopFracMass([]int32{3, 1}, 4, 0.1); v != 0.75 {
		t.Fatalf("TopFracMass = %v, want 0.75", v)
	}
}
