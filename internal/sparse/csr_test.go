package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomCSR builds a random square matrix with the given size and expected
// nonzeros per row, using the supplied source for determinism.
func randomCSR(t testing.TB, rng *rand.Rand, n int32, avgDeg int) *CSR {
	t.Helper()
	coo := NewCOO(n, n, int(n)*avgDeg)
	for k := 0; k < int(n)*avgDeg; k++ {
		coo.Add(rng.Int31n(n), rng.Int31n(n), rng.Float32()+0.1)
	}
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatalf("randomCSR produced invalid matrix: %v", err)
	}
	return m
}

func randomPerm(rng *rand.Rand, n int32) Permutation {
	p := Identity(n)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	base := func() *CSR {
		return &CSR{
			NumRows:    3,
			NumCols:    3,
			RowOffsets: []int32{0, 2, 2, 4},
			ColIndices: []int32{0, 2, 1, 2},
			Values:     []float32{1, 2, 3, 4},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CSR)
	}{
		{"bad first offset", func(m *CSR) { m.RowOffsets[0] = 1 }},
		{"non-monotone offsets", func(m *CSR) { m.RowOffsets[1] = 3; m.RowOffsets[2] = 2 }},
		{"offset overflow", func(m *CSR) { m.RowOffsets[3] = 5 }},
		{"column out of range", func(m *CSR) { m.ColIndices[0] = 3 }},
		{"negative column", func(m *CSR) { m.ColIndices[0] = -1 }},
		{"unsorted row", func(m *CSR) { m.ColIndices[0], m.ColIndices[1] = 2, 0 }},
		{"duplicate column", func(m *CSR) { m.ColIndices[1] = 0 }},
		{"value length mismatch", func(m *CSR) { m.Values = m.Values[:3] }},
		{"offsets length mismatch", func(m *CSR) { m.RowOffsets = m.RowOffsets[:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatal("corrupted matrix passed Validate")
			}
		})
	}
}

func TestCOOToCSRMergesDuplicates(t *testing.T) {
	coo := NewCOO(2, 2, 4)
	coo.Add(0, 1, 1.5)
	coo.Add(0, 1, 2.5)
	coo.Add(1, 0, 3)
	coo.Add(0, 0, 1)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("got %d nonzeros, want 3 after duplicate merge", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Fatalf("row 0 columns = %v, want [0 1]", cols)
	}
	if vals[1] != 4.0 {
		t.Fatalf("duplicate (0,1) merged to %v, want 4.0", vals[1])
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(t, rng, 40+rng.Int31n(60), 1+rng.Intn(6))
		tt := m.Transpose().Transpose()
		if !m.Equal(tt) {
			t.Fatalf("trial %d: transpose twice does not restore matrix", trial)
		}
	}
}

func TestTransposeEntries(t *testing.T) {
	coo := NewCOO(3, 4, 3)
	coo.Add(0, 3, 7)
	coo.Add(2, 1, 5)
	coo.Add(1, 0, 2)
	m := coo.ToCSR()
	tr := m.Transpose()
	if tr.NumRows != 4 || tr.NumCols != 3 {
		t.Fatalf("transpose shape = %dx%d, want 4x3", tr.NumRows, tr.NumCols)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cols, vals := tr.Row(3)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 7 {
		t.Fatalf("transposed entry (3,0) missing: cols=%v vals=%v", cols, vals)
	}
}

func TestSymmetrizeProducesSymmetricPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		m := randomCSR(t, rng, 60, 3)
		s := m.Symmetrize()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if !s.IsPatternSymmetric() {
			t.Fatalf("trial %d: symmetrized matrix has asymmetric pattern", trial)
		}
		// Every original entry must survive.
		for r := int32(0); r < m.NumRows; r++ {
			cols, _ := m.Row(r)
			scols, _ := s.Row(r)
			for _, c := range cols {
				if !containsInt32(scols, c) {
					t.Fatalf("entry (%d,%d) lost in symmetrization", r, c)
				}
			}
		}
	}
}

func containsInt32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestPermuteSymmetricMovesEntries(t *testing.T) {
	// 3x3 with entry (0,1)=5; permute 0->2, 1->0, 2->1: entry lands at (2,0).
	coo := NewCOO(3, 3, 1)
	coo.Add(0, 1, 5)
	m := coo.ToCSR()
	p := Permutation{2, 0, 1}
	out := m.PermuteSymmetric(p)
	cols, vals := out.Row(2)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 5 {
		t.Fatalf("permuted entry = row2 cols=%v vals=%v, want (2,0)=5", cols, vals)
	}
}

func TestPermuteSymmetricRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(t, rng, 50+rng.Int31n(50), 1+rng.Intn(5))
		p := randomPerm(rng, m.NumRows)
		back := m.PermuteSymmetric(p).PermuteSymmetric(p.Inverse())
		if !m.Equal(back) {
			t.Fatalf("trial %d: permute then inverse-permute does not restore matrix", trial)
		}
	}
}

// permuteOracle is PermuteSymmetric by definition: the COO of
// (p[i], p[j], v) for every entry (i, j, v), assembled by ToCSR.
func permuteOracle(m *CSR, p Permutation) *CSR {
	coo := NewCOO(m.NumRows, m.NumCols, m.NNZ())
	for r := int32(0); r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for k, c := range cols {
			coo.Add(p[r], p[c], vals[k])
		}
	}
	return coo.ToCSR()
}

// sameBits is CSR.Equal with values compared bit for bit, so NaN and -0
// entries compare as stored.
func sameBits(a, b *CSR) bool {
	if !a.EqualPattern(b) {
		return false
	}
	for i, v := range a.Values {
		if math.Float32bits(v) != math.Float32bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// permutesLikeOracle reports whether m and its pattern both permute as
// the oracle does: m bit for bit, and its pattern to the oracle's pattern
// with nil Values.
func permutesLikeOracle(m *CSR, p Permutation) bool {
	want := permuteOracle(m, p)
	pat := m.Pattern().PermuteSymmetric(p)
	return sameBits(m.PermuteSymmetric(p), want) && pat.Values == nil && pat.EqualPattern(want)
}

func TestPermuteSymmetricMatchesOracle(t *testing.T) {
	check := func(name string, m *CSR, p Permutation) {
		t.Helper()
		if !permutesLikeOracle(m, p) {
			t.Fatalf("%s: PermuteSymmetric of %+v or its pattern differs from the oracle %+v", name, m, permuteOracle(m, p))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for name, m := range wireCorpus() {
		if m.IsSquare() {
			check(name, m, randomPerm(rng, m.NumRows))
			check(name+"/identity", m, Identity(m.NumRows))
		}
	}
	// Random shapes: 0×0 and 1×1 included, rows left empty, and one row
	// full (a hub whose entries land in every output column).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Int31n(40)
		coo := NewCOO(n, n, 0)
		for k := rng.Intn(int(n*n) + 1); k > 0; k-- {
			coo.Add(rng.Int31n(n), rng.Int31n(n), rng.Float32()-0.5)
		}
		if n > 0 && rng.Intn(2) == 0 {
			hub := rng.Int31n(n)
			for c := int32(0); c < n; c++ {
				coo.Add(hub, c, float32(c))
			}
		}
		return permutesLikeOracle(coo.ToCSR(), randomPerm(rng, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	one := NewCOO(1, 1, 1)
	one.Add(0, 0, 2)
	check("1x1", one.ToCSR(), Identity(1))
}

// TestPatternCarriesThrough checks that a pattern view shares its
// matrix's structure and that every operation documented to carry a
// pattern returns the pattern of its valued result.
func TestPatternCarriesThrough(t *testing.T) {
	for name, m := range wireCorpus() {
		pat := m.Pattern()
		if pat.Values != nil || !pat.EqualPattern(m) || pat.Validate() != nil {
			t.Fatalf("%s: Pattern() = %+v, not a valid pattern of %+v", name, pat, m)
		}
		if m.NNZ() > 0 && &pat.ColIndices[0] != &m.ColIndices[0] {
			t.Fatalf("%s: Pattern copied ColIndices", name)
		}
		for r := int32(0); r < m.NumRows; r++ {
			if cols, vals := pat.Row(r); vals != nil || len(cols) != int(m.RowLen(r)) {
				t.Fatalf("%s: pattern row %d = %v, %v", name, r, cols, vals)
			}
		}
		if tp := pat.Transpose(); tp.Values != nil || !tp.EqualPattern(m.Transpose()) {
			t.Fatalf("%s: Transpose of the pattern = %+v", name, tp)
		}
		coo, want := CSRToCOO(pat), CSRToCOO(m)
		if coo.Values != nil || !slices.Equal(coo.RowIdx, want.RowIdx) || !slices.Equal(coo.ColIdx, want.ColIdx) {
			t.Fatalf("%s: CSRToCOO of the pattern = %+v, want the entries of %+v", name, coo, want)
		}
		if m.IsSquare() {
			if sym := pat.Symmetrize(); sym.Values != nil || !sym.EqualPattern(m.Symmetrize()) {
				t.Fatalf("%s: Symmetrize of the pattern = %+v", name, sym)
			}
		}
	}
	bad := &CSR{NumRows: 1, NumCols: 1, RowOffsets: []int32{0, 1}, ColIndices: []int32{0}, Values: []float32{}}
	if bad.Validate() == nil {
		t.Fatal("Validate accepted empty non-nil Values for one nonzero")
	}
}

func TestPermuteSymmetricPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomCSR(t, rng, 80, 4)
	p := randomPerm(rng, m.NumRows)
	out := m.PermuteSymmetric(p)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != m.NNZ() {
		t.Fatalf("nnz changed: %d -> %d", m.NNZ(), out.NNZ())
	}
	// Degree multiset is preserved under symmetric permutation.
	dm := m.DegreeDistribution()
	do := out.DegreeDistribution()
	if len(dm) != len(do) {
		t.Fatalf("degree histogram length changed: %d -> %d", len(dm), len(do))
	}
	for d := range dm {
		if dm[d] != do[d] {
			t.Fatalf("count of degree-%d rows changed: %d -> %d", d, dm[d], do[d])
		}
	}
}

func TestPermutationBasics(t *testing.T) {
	id := Identity(5)
	if !id.IsIdentity() || !id.IsValid() {
		t.Fatal("Identity(5) is not a valid identity permutation")
	}
	p := Permutation{2, 0, 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	if got := p.Compose(inv); !got.IsIdentity() {
		t.Fatalf("p ∘ p⁻¹ = %v, want identity", got)
	}
	bad := Permutation{0, 0, 2}
	if bad.IsValid() {
		t.Fatal("duplicate-valued permutation passed validation")
	}
	oob := Permutation{0, 3, 1}
	if oob.IsValid() {
		t.Fatal("out-of-range permutation passed validation")
	}
}

func TestFromNewOrder(t *testing.T) {
	// order lists old IDs in new order: new ID 0 is old 2, etc.
	order := []int32{2, 0, 1}
	p := FromNewOrder(order)
	want := Permutation{1, 2, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("FromNewOrder = %v, want %v", p, want)
		}
	}
}

func TestPermuteVector(t *testing.T) {
	p := Permutation{2, 0, 1}
	x := []float32{10, 20, 30}
	y := p.PermuteVector(x)
	want := []float32{20, 30, 10}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("PermuteVector = %v, want %v", y, want)
		}
	}
}

func TestQuickPermutationInverse(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int32(nRaw%100) + 1
		rng := rand.New(rand.NewSource(seed))
		p := randomPerm(rng, n)
		inv := p.Inverse()
		return p.Compose(inv).IsIdentity() && inv.Compose(p).IsIdentity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPermuteRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, degRaw uint8) bool {
		n := int32(nRaw%60) + 2
		deg := int(degRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(&testing.T{}, rng, n, deg)
		p := randomPerm(rng, n)
		return m.PermuteSymmetric(p).PermuteSymmetric(p.Inverse()).Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskRowsCols(t *testing.T) {
	coo := NewCOO(4, 4, 5)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 3, 1)
	coo.Add(3, 0, 1)
	coo.Add(2, 2, 1)
	m := coo.ToCSR()
	keep := []bool{true, false, false, false}
	out := m.MaskRowsCols(keep)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Surviving entries touch node 0: (0,1) and (3,0).
	if out.NNZ() != 2 {
		t.Fatalf("masked nnz = %d, want 2", out.NNZ())
	}
	if out.NumRows != m.NumRows {
		t.Fatal("masking must not change the matrix shape")
	}
}

func TestCompactEmpty(t *testing.T) {
	coo := NewCOO(5, 5, 2)
	coo.Add(0, 4, 1)
	coo.Add(4, 0, 2)
	m := coo.ToCSR() // rows 1..3 are fully disconnected
	out, remap := m.CompactEmpty()
	if out.NumRows != 2 {
		t.Fatalf("compacted to %d rows, want 2", out.NumRows)
	}
	if remap[0] != 0 || remap[4] != 1 || remap[2] != -1 {
		t.Fatalf("remap = %v", remap)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != 2 {
		t.Fatalf("compacted nnz = %d, want 2", out.NNZ())
	}
}

func TestStats(t *testing.T) {
	coo := NewCOO(4, 4, 6)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 1)
	coo.Add(0, 2, 1)
	coo.Add(1, 0, 1)
	coo.Add(2, 0, 1)
	coo.Add(3, 0, 1)
	m := coo.ToCSR()
	if d := m.Degrees(); d[0] != 3 || d[3] != 1 {
		t.Fatalf("Degrees = %v", d)
	}
	if d := m.InDegrees(); d[0] != 4 || d[3] != 0 {
		t.Fatalf("InDegrees = %v", d)
	}
	if m.EmptyRows() != 0 {
		t.Fatalf("EmptyRows = %d, want 0", m.EmptyRows())
	}
	if got := m.AverageDegree(); got != 1.5 {
		t.Fatalf("AverageDegree = %v, want 1.5", got)
	}
	if bw := m.Bandwidth(); bw != 3 {
		t.Fatalf("Bandwidth = %d, want 3", bw)
	}
	// DegreeSkew assertions live in internal/quality, where the shared
	// implementation moved.
}

func TestCSRToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(t, rng, 70, 3)
	back := CSRToCOO(m).ToCSR()
	if !m.Equal(back) {
		t.Fatal("CSR -> COO -> CSR round trip changed the matrix")
	}
}

func TestConnectedComponents(t *testing.T) {
	// 0-1-2 chain, 3-4 pair (directed edge only), 5 isolated.
	coo := NewCOO(6, 6, 3)
	coo.Add(0, 1, 1)
	coo.Add(2, 1, 1) // weak connectivity joins 2 via in-edge of 1
	coo.Add(3, 4, 1)
	m := coo.ToCSR()
	label, count := m.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatalf("chain not one component: %v", label)
	}
	if label[3] != label[4] || label[3] == label[0] {
		t.Fatalf("pair mislabeled: %v", label)
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Fatalf("isolated vertex joined a component: %v", label)
	}
	want := 3.0 / 6.0
	if got := m.LargestComponentFraction(); got != want {
		t.Fatalf("LargestComponentFraction = %v, want %v", got, want)
	}
}

func TestQuickComponentsConsistentWithEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(&testing.T{}, rng, 80, 2)
		label, _ := m.ConnectedComponents()
		for r := int32(0); r < m.NumRows; r++ {
			cols, _ := m.Row(r)
			for _, c := range cols {
				if label[r] != label[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
