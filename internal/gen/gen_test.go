package gen

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/quality"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const buckets = 16
	counts := make([]int, buckets)
	const draws = 160000
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d has %d draws, want about %d", b, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsValid(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(500)
	seen := make([]bool, 500)
	for _, v := range p {
		if v < 0 || v >= 500 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestZipfSkewsLow(t *testing.T) {
	r := NewRNG(11)
	const n = 1000
	var lowHalf, draws int
	for i := 0; i < 20000; i++ {
		v := r.Zipf(n, 1.0)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		if v < n/2 {
			lowHalf++
		}
		draws++
	}
	if frac := float64(lowHalf) / float64(draws); frac < 0.80 {
		t.Fatalf("Zipf(s=1) put only %.2f of mass in the low half; expected heavy skew", frac)
	}
}

func TestGeneratorsProduceValidMatrices(t *testing.T) {
	gens := map[string]Generator{
		"planted":   PlantedPartition{Nodes: 2000, Communities: 20, AvgDegree: 8, Mu: 0.2},
		"plantedZ":  PlantedPartition{Nodes: 2000, Communities: 20, AvgDegree: 8, Mu: 0.2, SizeSkew: 1.2},
		"hier":      Hierarchical{Nodes: 2048, Levels: 4, Fanout: 4, AvgDegree: 8, Escape: 0.2},
		"rmat":      RMAT{LogNodes: 11, AvgDegree: 8, A: 0.55, B: 0.18, C: 0.18, Symmetric: true},
		"rmatAsym":  RMAT{LogNodes: 11, AvgDegree: 8, A: 0.55, B: 0.18, C: 0.18},
		"mesh2":     Mesh2D{Width: 45, Height: 45},
		"mesh2x9":   Mesh2D{Width: 45, Height: 45, NinePoint: true},
		"mesh3":     Mesh3D{X: 13, Y: 13, Z: 13},
		"road":      RoadGrid{Width: 50, Height: 40, DropProb: 0.25, Shortcuts: 20},
		"ws":        WattsStrogatz{Nodes: 2000, K: 4, Beta: 0.1},
		"er":        ErdosRenyi{Nodes: 2000, AvgDegree: 8},
		"banded":    Banded{Nodes: 2000, Band: 8, Density: 0.5, OffBand: 50, Symmetric: true},
		"kmer":      KmerChain{Nodes: 2000, ChainLen: 100, BranchProb: 0.1},
		"hubstar":   HubStar{Nodes: 2000, Hubs: 2, HubConn: 0.3, Background: 200},
		"emptyrows": EmptyRowHeavy{Nodes: 2000, ActiveFrac: 0.1, AvgDegree: 15, TargetSkew: 1.1},
		"hubby":     HubbyCommunities{Nodes: 2000, Communities: 20, AvgDegree: 8, Mu: 0.2, Hubs: 30, HubDegree: 40},
	}
	for name, g := range gens {
		t.Run(name, func(t *testing.T) {
			m := g.Generate(1)
			if err := m.Validate(); err != nil {
				t.Fatalf("invalid matrix: %v", err)
			}
			if !m.IsSquare() {
				t.Fatalf("matrix is %dx%d, want square", m.NumRows, m.NumCols)
			}
			if m.NNZ() == 0 {
				t.Fatal("generator produced an empty matrix")
			}
			// Determinism: same seed, same matrix.
			if !m.Equal(g.Generate(1)) {
				t.Fatal("generator is not deterministic in its seed")
			}
		})
	}
}

func TestSymmetricGeneratorsAreSymmetric(t *testing.T) {
	gens := map[string]Generator{
		"planted": PlantedPartition{Nodes: 1000, Communities: 10, AvgDegree: 6, Mu: 0.3},
		"mesh2":   Mesh2D{Width: 30, Height: 30},
		"mesh3":   Mesh3D{X: 10, Y: 10, Z: 10},
		"ws":      WattsStrogatz{Nodes: 1000, K: 4, Beta: 0.1},
		"er":      ErdosRenyi{Nodes: 1000, AvgDegree: 6},
		"hubstar": HubStar{Nodes: 1000, Hubs: 2, HubConn: 0.2, Background: 100},
	}
	for name, g := range gens {
		t.Run(name, func(t *testing.T) {
			if !g.Generate(2).IsPatternSymmetric() {
				t.Fatal("expected a symmetric pattern")
			}
		})
	}
}

func TestEmptyRowHeavyHasManyEmptyRows(t *testing.T) {
	m := EmptyRowHeavy{Nodes: 5000, ActiveFrac: 0.07, AvgDegree: 20, TargetSkew: 1.2}.Generate(3)
	frac := float64(m.EmptyRows()) / float64(m.NumRows)
	if frac < 0.80 {
		t.Fatalf("only %.2f of rows are empty; wiki-Talk-like matrices need most rows empty", frac)
	}
}

func TestHubStarIsHubDominated(t *testing.T) {
	m := HubStar{Nodes: 4000, Hubs: 3, HubConn: 0.3, Background: 500}.Generate(4)
	// Symmetric storage mirrors each hub edge into a random row, so the hub
	// rows themselves hold about half of all nonzeros.
	if skew := quality.DegreeSkewFrac(m, 0.01); skew < 0.40 {
		t.Fatalf("top 1%% of rows hold only %.2f of nonzeros; hub-star must be hub dominated", skew)
	}
}

func TestRMATSkewGrowsWithA(t *testing.T) {
	lo := RMAT{LogNodes: 13, AvgDegree: 8, A: 0.30, B: 0.25, C: 0.25, Symmetric: true}.Generate(5)
	hi := RMAT{LogNodes: 13, AvgDegree: 8, A: 0.60, B: 0.17, C: 0.17, Symmetric: true}.Generate(5)
	if quality.DegreeSkew(lo) >= quality.DegreeSkew(hi) {
		t.Fatalf("skew(lo-A)=%.3f >= skew(hi-A)=%.3f; R-MAT skew should grow with A",
			quality.DegreeSkew(lo), quality.DegreeSkew(hi))
	}
}

func TestCorpusShape(t *testing.T) {
	c := Corpus()
	if len(c) != 50 {
		t.Fatalf("corpus has %d entries, want 50", len(c))
	}
	seen := map[string]bool{}
	families := map[string]int{}
	for _, e := range c {
		if seen[e.Name] {
			t.Fatalf("duplicate corpus name %q", e.Name)
		}
		seen[e.Name] = true
		families[e.Family]++
	}
	if len(families) < 8 {
		t.Fatalf("corpus spans only %d families; the selection process requires diversity", len(families))
	}
}

func TestCorpusSeedsDiffer(t *testing.T) {
	seeds := map[uint64]string{}
	for _, e := range Corpus() {
		if prev, dup := seeds[e.Seed]; dup {
			t.Fatalf("entries %q and %q share seed %d", prev, e.Name, e.Seed)
		}
		seeds[e.Seed] = e.Name
	}
}

func TestByName(t *testing.T) {
	e, err := ByName("mawi-like")
	if err != nil {
		t.Fatal(err)
	}
	if e.Family != "traffic" {
		t.Fatalf("mawi-like family = %q", e.Family)
	}
	if _, err := ByName("no-such-matrix"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestParsePreset(t *testing.T) {
	for _, p := range []Preset{Small, Full} {
		got, err := ParsePreset(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePreset(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePreset("Small"); err == nil {
		t.Fatal("ParsePreset accepted a name Preset.String never returns")
	}
}

func TestParseMatrices(t *testing.T) {
	got, err := ParseMatrices(" er-deg16, mawi-like,,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "er-deg16" || got[1] != "mawi-like" {
		t.Fatalf("ParseMatrices = %q", got)
	}
	if got, err := ParseMatrices(""); err != nil || got != nil {
		t.Fatalf(`ParseMatrices("") = %q, %v; want nil, nil`, got, err)
	}
	_, err = ParseMatrices("er-deg16,typo,also-typo")
	if err == nil || !strings.Contains(err.Error(), `"typo"`) {
		t.Fatalf("ParseMatrices with a typo: err = %v, want one naming \"typo\"", err)
	}
}

func TestCorpusEntriesGenerateSmall(t *testing.T) {
	// Generating every entry at Small preset is the expensive integration
	// gate for the corpus: every matrix must be valid, square, nonempty,
	// and pass the Section III selection rule against the small-device L2.
	const smallL2 = 32 * 1024 / 4 // see gpumodel.SimDeviceSmall; rows*4B > 32KB
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			m := e.Generate(Small)
			if err := m.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			if err := CheckSelection(m, smallL2*4); err != nil {
				t.Fatalf("selection rule: %v", err)
			}
			if m.NNZ() < 1000 {
				t.Fatalf("suspiciously sparse: %d nonzeros", m.NNZ())
			}
		})
	}
}

func TestCheckSelection(t *testing.T) {
	m := Mesh2D{Width: 10, Height: 10}.Generate(1)
	if err := CheckSelection(m, 32*1024); err == nil {
		t.Fatal("tiny matrix passed the footprint rule against a 32KB cache")
	}
	if err := CheckSelection(m, 100); err != nil {
		t.Fatalf("matrix with footprint 400B should pass against 100B cache: %v", err)
	}
}

func TestBFSOrderIsValidPermutation(t *testing.T) {
	m := ErdosRenyi{Nodes: 500, AvgDegree: 4}.Generate(8)
	p := bfsOrder(m)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIntRoots(t *testing.T) {
	cases := []struct{ n, sqrt, cbrt int32 }{
		{0, 0, 0}, {1, 1, 1}, {8, 2, 2}, {9, 3, 2}, {26, 5, 2}, {27, 5, 3}, {1000000, 1000, 100},
	}
	for _, tc := range cases {
		if got := isqrt(tc.n); got != tc.sqrt {
			t.Errorf("isqrt(%d) = %d, want %d", tc.n, got, tc.sqrt)
		}
		if got := icbrt(tc.n); got != tc.cbrt {
			t.Errorf("icbrt(%d) = %d, want %d", tc.n, got, tc.cbrt)
		}
	}
}
