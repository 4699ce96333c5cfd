package kernels

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/check"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// spgemmPair is one (A, B) operand pair of the differential corpus.
type spgemmPair struct {
	name string
	a, b *sparse.CSR
}

// intCSR builds a random integer-valued CSR (values 1..8, exact in
// float32) with roughly deg nonzeros per row.
func intCSR(rng *rand.Rand, rows, cols int32, deg int) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols, int(rows)*deg)
	for r := int32(0); r < rows; r++ {
		for d := 0; d < deg; d++ {
			coo.Add(r, rng.Int31n(cols), float32(1+rng.Intn(8)))
		}
	}
	return coo.ToCSR()
}

// spgemmCorpus is the pathological differential corpus: degenerate shapes,
// duplicate-heavy assemblies, rectangular chains, and random products. All
// values are small positive integers so the int64 dense oracle is exact.
func spgemmCorpus() []spgemmPair {
	rng := rand.New(rand.NewSource(0xD1FF))
	var out []spgemmPair
	add := func(name string, a, b *sparse.CSR) {
		out = append(out, spgemmPair{name: name, a: a, b: b})
	}

	empty := sparse.NewCOO(0, 0, 0).ToCSR()
	add("empty-0x0", empty, empty)

	// Zero-extent rectangles: a 3x0 times 0x4 product is an all-zero 3x4.
	add("rect-3x0-0x4", sparse.NewCOO(3, 0, 0).ToCSR(), sparse.NewCOO(0, 4, 0).ToCSR())

	single := sparse.NewCOO(1, 1, 1)
	single.Add(0, 0, 3)
	add("single-entry", single.ToCSR(), single.ToCSR())

	add("single-row-empty", sparse.NewCOO(1, 1, 0).ToCSR(), sparse.NewCOO(1, 1, 0).ToCSR())

	diag := sparse.NewCOO(17, 17, 17)
	for i := int32(0); i < 17; i++ {
		diag.Add(i, i, float32(1+i%7))
	}
	add("diagonal-only", diag.ToCSR(), diag.ToCSR())

	hub := sparse.NewCOO(24, 24, 48)
	for c := int32(1); c < 24; c++ {
		hub.AddSym(0, c, 2)
	}
	add("single-dense-row", hub.ToCSR(), hub.ToCSR())

	// Duplicate coordinates merged by summation: the kernels must see the
	// merged integer pattern (12 + 12 reps of 1 → value 12 per entry).
	dup := sparse.NewCOO(8, 8, 96)
	for rep := 0; rep < 12; rep++ {
		dup.AddSym(0, 1, 1)
		dup.AddSym(2, 3, 1)
		dup.Add(4, 4, 1)
		dup.AddSym(5, 6, 1)
	}
	add("duplicate-heavy", dup.ToCSR(), dup.ToCSR())

	disc := sparse.NewCOO(40, 40, 64)
	for _, base := range []int32{0, 15, 31} {
		for i := base; i < base+5; i++ {
			for j := i + 1; j < base+5; j++ {
				disc.AddSym(i, j, 1)
			}
		}
	}
	add("disconnected-components", disc.ToCSR(), disc.ToCSR())

	add("rect-2x3-3x4", intCSR(rng, 2, 3, 2), intCSR(rng, 3, 4, 3))
	add("rect-tall-50x7", intCSR(rng, 50, 7, 3), intCSR(rng, 7, 31, 4))
	add("rect-wide-5x90", intCSR(rng, 5, 90, 20), intCSR(rng, 90, 6, 2))
	add("random-64", intCSR(rng, 64, 64, 6), intCSR(rng, 64, 64, 6))
	add("random-257", intCSR(rng, 257, 257, 4), intCSR(rng, 257, 257, 4))

	dense := sparse.NewCOO(9, 9, 81)
	for i := int32(0); i < 9; i++ {
		for j := int32(0); j < 9; j++ {
			dense.Add(i, j, float32(1+(i+2*j)%5))
		}
	}
	add("dense-9x9", dense.ToCSR(), dense.ToCSR())

	return out
}

// spgemmTilings enumerates tile decompositions of the A operand's rows for
// the cluster-wise path: the default shards, one tile per row, one tile
// for everything, and community-run tiles with a split cap.
func spgemmTilings(n int32) map[string][]community.Shard {
	tilings := map[string][]community.Shard{"shards": nil}
	if n > 0 {
		singles := make([]community.Shard, n)
		for i := range singles {
			singles[i] = community.Shard{Lo: int32(i), Hi: int32(i) + 1}
		}
		tilings["singleton"] = singles
		tilings["whole"] = []community.Shard{{Lo: 0, Hi: n}}
		comm := make([]int32, n)
		for i := range comm {
			comm[i] = int32(i) / 5
		}
		tilings["comm-runs"] = community.TilesFromCommunities(comm, 3)
	}
	return tilings
}

// denseEqual compares two int64 grids, reporting the first mismatch.
func denseEqual(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cols, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: C[%d][%d] = %d, want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestSpGEMMDifferentialOracle is the differential gate: both row
// strategies and every cluster-wise tiling must match the naive dense
// int64 reference exactly on the whole pathological corpus, and every
// output must satisfy the independent CSR validator.
func TestSpGEMMDifferentialOracle(t *testing.T) {
	for _, pair := range spgemmCorpus() {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			want, err := SpGEMMReferenceInt64(pair.a, pair.b)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []SpGEMMStrategy{SpGEMMDenseAcc, SpGEMMSortedMerge} {
				c, err := SpGEMM(pair.a, pair.b, strat)
				if err != nil {
					t.Fatalf("%v: %v", strat, err)
				}
				if err := check.ValidCSR(c); err != nil {
					t.Fatalf("%v output invalid: %v", strat, err)
				}
				denseEqual(t, pair.name+"/"+strat.String(), CSRToDenseInt64(c), want)
			}
			for tname, tiles := range spgemmTilings(pair.a.NumRows) {
				c, stats, err := SpGEMMClusterWise(pair.a, pair.b, tiles)
				if err != nil {
					t.Fatalf("cluster/%s: %v", tname, err)
				}
				if err := check.ValidCSR(c); err != nil {
					t.Fatalf("cluster/%s output invalid: %v", tname, err)
				}
				denseEqual(t, pair.name+"/cluster-"+tname, CSRToDenseInt64(c), want)
				if stats.TotalAccEntries != int64(c.NNZ()) {
					t.Fatalf("cluster/%s: TotalAccEntries %d != nnz(C) %d", tname, stats.TotalAccEntries, c.NNZ())
				}
			}
		})
	}
}

// TestSpGEMMStrategiesBitIdentical pins the stronger-than-required
// invariant the test battery leans on: because every execution mode
// accumulates each output entry in ascending-k order, the float32 outputs
// are bit-identical across strategies even for non-integer values — which
// subsumes the nnz(C) and value-multiset invariances.
func TestSpGEMMStrategiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	float := func(rows, cols int32, deg int) *sparse.CSR {
		coo := sparse.NewCOO(rows, cols, int(rows)*deg)
		for r := int32(0); r < rows; r++ {
			for d := 0; d < deg; d++ {
				coo.Add(r, rng.Int31n(cols), rng.Float32()+0.1)
			}
		}
		return coo.ToCSR()
	}
	a, b := float(120, 80, 5), float(80, 140, 6)
	dense, err := SpGEMM(a, b, SpGEMMDenseAcc)
	if err != nil {
		t.Fatal(err)
	}
	merge, err := SpGEMM(a, b, SpGEMMSortedMerge)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(merge) {
		t.Fatal("dense-accumulator and sorted-merge outputs differ bitwise")
	}
	for tname, tiles := range spgemmTilings(a.NumRows) {
		cluster, _, err := SpGEMMClusterWise(a, b, tiles)
		if err != nil {
			t.Fatalf("%s: %v", tname, err)
		}
		if !dense.Equal(cluster) {
			t.Fatalf("cluster-wise (%s) output differs bitwise from row-wise", tname)
		}
	}
	// The multiset invariance the issue names explicitly, kept as its own
	// assertion so a future strategy that only reorders rows still has a
	// gate to pass.
	multiset := func(m *sparse.CSR) []float32 {
		vs := append([]float32(nil), m.Values...)
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		return vs
	}
	dm, mm := multiset(dense), multiset(merge)
	for i := range dm {
		if dm[i] != mm[i] {
			t.Fatalf("value multiset diverges at %d: %v vs %v", i, dm[i], mm[i])
		}
	}
}

// TestSpGEMMRelabelingInvariance is the metamorphic sweep: for every
// registered reordering technique, (P·A·Pᵀ)·(P·A·Pᵀ) must equal
// P·(A·A)·Pᵀ exactly. Integer values keep float accumulation exact across
// the permuted summation orders, so the comparison is bitwise. The
// cluster-wise schedule runs on the default shards, on singleton tiles,
// and on tiles aligned to A's RABBIT communities carried through P, the
// tiling the repository benchmark times.
func TestSpGEMMRelabelingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	matrices := map[string]*sparse.CSR{
		"random-64": intCSR(rng, 64, 64, 6),
		"skewed-48": func() *sparse.CSR {
			coo := sparse.NewCOO(48, 48, 200)
			for c := int32(1); c < 48; c++ {
				coo.AddSym(0, c, 1)
			}
			for i := 0; i < 100; i++ {
				coo.Add(rng.Int31n(48), rng.Int31n(48), float32(1+rng.Intn(4)))
			}
			return coo.ToCSR()
		}(),
	}
	for mname, m := range matrices {
		base, err := SpGEMM(m, m, SpGEMMDenseAcc)
		if err != nil {
			t.Fatal(err)
		}
		comm := core.Rabbit(m).Communities.Of
		for _, tech := range reorder.All() {
			tech := tech
			t.Run(mname+"/"+tech.Name(), func(t *testing.T) {
				p := tech.Order(m)
				if err := check.ValidPermutation(p); err != nil {
					t.Fatal(err)
				}
				pm := m.PermuteSymmetric(p)
				want := base.PermuteSymmetric(p)
				for _, strat := range []SpGEMMStrategy{SpGEMMDenseAcc, SpGEMMSortedMerge} {
					got, err := SpGEMM(pm, pm, strat)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: (PAP')² != P(A²)P' under %s", strat, tech.Name())
					}
				}
				labels := make([]int32, len(comm))
				for v, l := range comm {
					labels[p[v]] = l
				}
				tilings := spgemmTilings(pm.NumRows)
				tilings["community"] = community.TilesFromCommunities(labels, 8)
				for _, tname := range []string{"shards", "singleton", "community"} {
					got, _, err := SpGEMMClusterWise(pm, pm, tilings[tname])
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("cluster-wise (%s): (PAP')² != P(A²)P' under %s", tname, tech.Name())
					}
				}
			})
		}
	}
}

// TestSpGEMMSymbolicMatchesExecution pins the symbolic pass against the
// numeric kernels: per-row sizes, total nonzeros, flop count, and the
// tile-footprint helper must agree with what execution actually produces.
func TestSpGEMMSymbolicMatchesExecution(t *testing.T) {
	for _, pair := range spgemmCorpus() {
		info, err := SpGEMMSymbolic(pair.a, pair.b)
		if err != nil {
			t.Fatal(err)
		}
		c, stats, err := SpGEMMClusterWise(pair.a, pair.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.NNZC != int64(c.NNZ()) {
			t.Fatalf("%s: symbolic NNZC %d != executed %d", pair.name, info.NNZC, c.NNZ())
		}
		if info.Flops != stats.Flops {
			t.Fatalf("%s: symbolic Flops %d != executed %d", pair.name, info.Flops, stats.Flops)
		}
		for r := int32(0); r < c.NumRows; r++ {
			if got := c.RowOffsets[r+1] - c.RowOffsets[r]; got != info.RowNNZ[r] {
				t.Fatalf("%s: row %d nnz %d != symbolic %d", pair.name, r, got, info.RowNNZ[r])
			}
		}
		tiles := community.Shards(pair.a.NumRows)
		if got, want := SpGEMMTileFootprint(info.RowNNZ, tiles), stats.MaxTileAccEntries; got != want {
			t.Fatalf("%s: symbolic tile footprint %d != executed %d", pair.name, got, want)
		}
		if stats.MaxTileAccBytes() != 8*stats.MaxTileAccEntries {
			t.Fatalf("%s: MaxTileAccBytes %d != 8*%d", pair.name, stats.MaxTileAccBytes(), stats.MaxTileAccEntries)
		}
	}
}

// TestSpGEMMClusterStats checks the reuse accounting: distinct B-row loads
// per tile can never exceed the row-wise count (one per A-nonzero) nor
// undercut the number of distinct columns A uses, and the whole-matrix
// tile must achieve exactly that minimum.
func TestSpGEMMClusterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := intCSR(rng, 96, 96, 5)
	distinct := map[int32]bool{}
	for _, c := range a.ColIndices {
		distinct[c] = true
	}
	_, whole, err := SpGEMMClusterWise(a, a, []community.Shard{{Lo: 0, Hi: a.NumRows}})
	if err != nil {
		t.Fatal(err)
	}
	if whole.DistinctBRowLoads != int64(len(distinct)) {
		t.Fatalf("whole-matrix tile loads %d distinct B rows, want %d", whole.DistinctBRowLoads, len(distinct))
	}
	_, sharded, err := SpGEMMClusterWise(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.DistinctBRowLoads < whole.DistinctBRowLoads || sharded.DistinctBRowLoads > int64(a.NNZ()) {
		t.Fatalf("sharded B-row loads %d outside [%d, %d]", sharded.DistinctBRowLoads, whole.DistinctBRowLoads, a.NNZ())
	}
	if whole.Tiles != 1 || sharded.Tiles != len(community.Shards(a.NumRows)) {
		t.Fatalf("tile counts %d/%d unexpected", whole.Tiles, sharded.Tiles)
	}
}

// TestSpGEMMErrors covers the rejection paths: inner-dimension
// disagreement, unknown strategies, and malformed tilings.
func TestSpGEMMErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := intCSR(rng, 4, 5, 2)
	b := intCSR(rng, 6, 3, 2)
	if _, err := SpGEMM(a, b, SpGEMMDenseAcc); err == nil {
		t.Fatal("inner-dimension mismatch accepted")
	}
	if _, err := SpGEMMReferenceInt64(a, b); err == nil {
		t.Fatal("reference accepted mismatched shapes")
	}
	if _, err := SpGEMMSymbolic(a, b); err == nil {
		t.Fatal("symbolic accepted mismatched shapes")
	}
	if _, _, err := SpGEMMClusterWise(a, b, nil); err == nil {
		t.Fatal("cluster-wise accepted mismatched shapes")
	}
	sq := intCSR(rng, 8, 8, 2)
	if _, err := SpGEMM(sq, sq, SpGEMMStrategy(99)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for name, tiles := range map[string][]community.Shard{
		"gap":       {{Lo: 0, Hi: 3}, {Lo: 4, Hi: 8}},
		"short":     {{Lo: 0, Hi: 7}},
		"backwards": {{Lo: 0, Hi: 8}, {Lo: 8, Hi: 4}},
	} {
		if _, _, err := SpGEMMClusterWise(sq, sq, tiles); err == nil {
			t.Fatalf("tiling %q accepted", name)
		}
	}
	if _, err := ParseSpGEMMStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy name accepted")
	}
	for _, name := range []string{"dense", "merge"} {
		s, err := ParseSpGEMMStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != name {
			t.Fatalf("round trip %q -> %v", name, s)
		}
	}
}

// TestSpGEMMOutputOverflow multiplies a 46,341×1 column by a 1×46,341
// row: nnz(C) = 46,341² exceeds 2³¹−1, so every mode must return an error
// before allocating C's arrays (2³¹ entries of each, ~16 GiB) instead of
// panicking after growing them. The symbolic pass still reports the count.
func TestSpGEMMOutputOverflow(t *testing.T) {
	const n = 46341
	col := sparse.NewCOO(n, 1, n)
	row := sparse.NewCOO(1, n, n)
	for i := int32(0); i < n; i++ {
		col.Add(i, 0, 1)
		row.Add(0, i, 1)
	}
	a, b := col.ToCSR(), row.ToCSR()
	info, err := SpGEMMSymbolic(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if info.NNZC != n*n || info.Flops != n*n {
		t.Fatalf("symbolic NNZC %d, Flops %d, want %d each", info.NNZC, info.Flops, int64(n*n))
	}
	for _, strat := range []SpGEMMStrategy{SpGEMMDenseAcc, SpGEMMSortedMerge} {
		if c, err := SpGEMM(a, b, strat); err == nil {
			t.Fatalf("%v: %d-nonzero product accepted", strat, c.NNZ())
		}
	}
	if c, _, err := SpGEMMClusterWise(a, b, nil); err == nil {
		t.Fatalf("cluster-wise: %d-nonzero product accepted", c.NNZ())
	}
}

// TestSpGEMMAllocsIndependentOfRows pins the allocation-free row and tile
// loops: for every mode, the allocations of one call on a matrix with 8×
// the rows stay within a small constant of those at 1×, so no mode
// allocates per output row or per tile.
func TestSpGEMMAllocsIndependentOfRows(t *testing.T) {
	const rows, slack = 256, 2
	calls := func(m *sparse.CSR) map[string]func() {
		labels := make([]int32, m.NumRows)
		for i := range labels {
			labels[i] = int32(i) / 12
		}
		comm := community.TilesFromCommunities(labels, 8)
		singles := spgemmTilings(m.NumRows)["singleton"]
		return map[string]func(){
			"dense":             func() { _, _ = SpGEMM(m, m, SpGEMMDenseAcc) },
			"merge":             func() { _, _ = SpGEMM(m, m, SpGEMMSortedMerge) },
			"cluster-singleton": func() { _, _, _ = SpGEMMClusterWise(m, m, singles) },
			"cluster-community": func() { _, _, _ = SpGEMMClusterWise(m, m, comm) },
		}
	}
	small, large := calls(benchSpGEMMMatrix(rows, 4)), calls(benchSpGEMMMatrix(8*rows, 4))
	for name, call := range small {
		base := testing.AllocsPerRun(3, call)
		scaled := testing.AllocsPerRun(3, large[name])
		if scaled > base+slack {
			t.Errorf("%s: %.0f allocations per call at %d rows, %.0f at %d rows", name, scaled, 8*rows, base, rows)
		}
	}
}

// TestSpGEMMKnownProduct checks one product against hand-computed values.
func TestSpGEMMKnownProduct(t *testing.T) {
	// A = [1 2; 0 3], B = [4 0; 5 6] -> C = [14 12; 15 18]
	a := sparse.NewCOO(2, 2, 3)
	a.Add(0, 0, 1)
	a.Add(0, 1, 2)
	a.Add(1, 1, 3)
	b := sparse.NewCOO(2, 2, 3)
	b.Add(0, 0, 4)
	b.Add(1, 0, 5)
	b.Add(1, 1, 6)
	c, err := SpGEMM(a.ToCSR(), b.ToCSR(), SpGEMMDenseAcc)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{14, 12}, {15, 18}}
	denseEqual(t, "known", CSRToDenseInt64(c), want)
}

// FuzzSpGEMMValidCSR builds two structurally valid integer CSR operands
// from fuzz bytes and asserts that every execution mode yields a CSR the
// independent validator accepts, that all modes agree bitwise, and that
// the dense int64 oracle matches — the fuzz face of the differential gate.
//
// Each operand keeps at most maxEntries entries of value ≤ 5, so no entry
// of C, and no partial sum of one, exceeds (5·maxEntries)² = 16,769,025
// < 2^24: every float32 accumulation is exact and the oracle comparison
// can stay exact. The 4,036-byte seed (1,009 entries per operand
// uncapped) is the input that overflowed that bound before the cap.
func FuzzSpGEMMValidCSR(f *testing.F) {
	const maxEntries = 819
	f.Add([]byte{}, uint8(2), uint8(3), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(4), uint8(4), uint8(4))
	f.Add([]byte{0xff, 0x00, 0x7f, 0x33, 0x21}, uint8(1), uint8(7), uint8(1))
	f.Add(bytes.Repeat([]byte("w"), 4036), uint8(4), uint8('%'), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, rows, inner, cols uint8) {
		m, k, n := int32(rows%12), int32(inner%12), int32(cols%12)
		build := func(r, c int32, seed []byte) *sparse.CSR {
			if len(seed) > 2*maxEntries {
				seed = seed[:2*maxEntries]
			}
			coo := sparse.NewCOO(r, c, len(seed))
			if r > 0 && c > 0 {
				for i := 0; i+1 < len(seed); i += 2 {
					coo.Add(int32(seed[i])%r, int32(seed[i+1])%c, float32(1+int(seed[i])%5))
				}
			}
			return coo.ToCSR()
		}
		half := len(data) / 2
		a := build(m, k, data[:half])
		b := build(k, n, data[half:])
		want, err := SpGEMMReferenceInt64(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var outs []*sparse.CSR
		for _, strat := range []SpGEMMStrategy{SpGEMMDenseAcc, SpGEMMSortedMerge} {
			c, err := SpGEMM(a, b, strat)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, c)
		}
		cw, _, err := SpGEMMClusterWise(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, cw)
		for i, c := range outs {
			if err := check.ValidCSR(c); err != nil {
				t.Fatalf("output %d invalid: %v", i, err)
			}
			if !c.Equal(outs[0]) {
				t.Fatalf("output %d differs from strategy 0", i)
			}
			denseEqual(t, fmt.Sprintf("fuzz-output-%d", i), CSRToDenseInt64(c), want)
		}
	})
}
