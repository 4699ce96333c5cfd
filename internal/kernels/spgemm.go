package kernels

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/check"
	"repro/internal/community"
	"repro/internal/sparse"
)

// SpGEMM computes the sparse–sparse product C = A·B over CSR using
// Gustavson's row-wise algorithm (arXiv 2507.21253's baseline): row i of C
// is the sum of B's rows selected and scaled by row i of A. The output is
// a fully valid CSR (sorted, duplicate-free rows); explicit zeros produced
// by cancellation are kept, matching standard SpGEMM semantics.
//
// Every strategy — and SpGEMMClusterWise — accumulates each output entry
// c_ij in ascending-k order (the order of A's sorted rows), so all three
// execution modes produce bit-identical values for any float32 input, not
// just for the exactly-representable integer matrices the differential
// tests sweep.

// SpGEMMStrategy selects how each output row is accumulated.
type SpGEMMStrategy int

const (
	// SpGEMMDenseAcc expands each row into a dense accumulator of
	// B.NumCols slots (generation-marked, so clearing is O(row nnz)) and
	// gathers the touched columns in sorted order. The classic fast path
	// when rows are dense relative to the accumulator.
	SpGEMMDenseAcc SpGEMMStrategy = iota
	// SpGEMMSortedMerge keeps the partial row as a sorted (column, value)
	// list and two-way merges each scaled B row into it. No O(NumCols)
	// state; the right shape when output rows are short.
	SpGEMMSortedMerge
)

// String names the strategy as cmd/spgemm's -strategy flag spells it.
func (s SpGEMMStrategy) String() string {
	switch s {
	case SpGEMMDenseAcc:
		return "dense"
	case SpGEMMSortedMerge:
		return "merge"
	default:
		return fmt.Sprintf("SpGEMMStrategy(%d)", int(s))
	}
}

// ParseSpGEMMStrategy resolves a -strategy flag value ("dense" or "merge").
func ParseSpGEMMStrategy(name string) (SpGEMMStrategy, error) {
	switch name {
	case "dense":
		return SpGEMMDenseAcc, nil
	case "merge":
		return SpGEMMSortedMerge, nil
	default:
		return 0, fmt.Errorf("kernels: unknown SpGEMM strategy %q (want dense or merge)", name)
	}
}

// spgemmShapeCheck validates the inner-dimension agreement of C = A·B.
func spgemmShapeCheck(a, b *sparse.CSR) error {
	if a.NumCols != b.NumRows {
		return fmt.Errorf("kernels: SpGEMM inner dimensions disagree: A is %dx%d, B is %dx%d",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols)
	}
	return nil
}

// SpGEMM computes C = A·B with the chosen row strategy. A must have as
// many columns as B has rows; the result is A.NumRows × B.NumCols. When
// nnz(C) exceeds what a CSR's int32 offsets address, it returns an error
// before allocating C's column and value arrays.
func SpGEMM(a, b *sparse.CSR, strategy SpGEMMStrategy) (*sparse.CSR, error) {
	check.AssertCSR(a)
	check.AssertCSR(b)
	if err := spgemmShapeCheck(a, b); err != nil {
		return nil, err
	}
	if strategy != SpGEMMDenseAcc && strategy != SpGEMMSortedMerge {
		return nil, fmt.Errorf("kernels: unknown SpGEMM strategy %d", strategy)
	}
	mark := make([]int32, b.NumCols)
	out, _, err := spgemmOutput(a, b, mark)
	if err != nil {
		return nil, err
	}
	switch strategy {
	case SpGEMMDenseAcc:
		clear(mark)
		spgemmDenseRows(a, b, out, make([]float32, b.NumCols), mark)
	case SpGEMMSortedMerge:
		var longest int32
		for row := int32(0); row < out.NumRows; row++ {
			longest = max(longest, out.RowLen(row))
		}
		spgemmMergeRows(a, b, out, make([]colVal, longest), make([]colVal, longest))
	}
	return check.CSR(out), nil
}

// spgemmOutput runs the symbolic pass every mode shares and allocates
// C = A·B at its exact size, so no mode grows C's arrays. It also returns
// the flop count. When nnz(C) exceeds what int32 offsets address it
// returns an error instead, before the column and value arrays exist.
// mark is the pass's scratch: B.NumCols zeros.
func spgemmOutput(a, b *sparse.CSR, mark []int32) (*sparse.CSR, int64, error) {
	offsets := make([]int32, int(a.NumRows)+1)
	flops, nnz := spgemmCountRows(a, b, offsets[1:], mark)
	if nnz > math.MaxInt32 {
		return nil, 0, fmt.Errorf("kernels: C = A·B has %d nonzeros, more than a CSR's int32 offsets address", nnz)
	}
	for row := 1; row < len(offsets); row++ {
		offsets[row] += offsets[row-1]
	}
	return &sparse.CSR{
		NumRows:    a.NumRows,
		NumCols:    b.NumCols,
		RowOffsets: offsets,
		ColIndices: make([]int32, nnz),
		Values:     make([]float32, nnz),
	}, flops, nil
}

// spgemmCountRows is the symbolic mark loop: it stores the nonzero count
// of each row of C = A·B in rowNNZ (A.NumRows entries) and returns the
// flop count and nnz(C). mark holds B.NumCols entries, zero on entry;
// mark[j] == row+1 means column j is already counted in the row.
//
//repro:noalloc
func spgemmCountRows(a, b *sparse.CSR, rowNNZ, mark []int32) (flops, nnz int64) {
	for row := int32(0); row < a.NumRows; row++ {
		cols, _ := a.Row(row)
		var rowLen int32
		if len(cols) == 1 {
			// One B row: its columns are the row of C, already distinct.
			rowLen = b.RowLen(cols[0])
			flops += int64(rowLen)
		} else {
			for _, ak := range cols {
				bc, _ := b.Row(ak)
				flops += int64(len(bc))
				for _, j := range bc {
					if mark[j] != row+1 {
						mark[j] = row + 1
						rowLen++
					}
				}
			}
		}
		rowNNZ[row] = rowLen
		nnz += int64(rowLen)
	}
	return flops, nnz
}

// spgemmDenseRows is the dense-accumulator Gustavson loop over C's
// preallocated rows: each row's touched columns are gathered in place in
// C, sorted, and read back from acc. acc and mark hold B.NumCols entries,
// mark zero on entry.
//
//repro:noalloc
func spgemmDenseRows(a, b, c *sparse.CSR, acc []float32, mark []int32) {
	for row := int32(0); row < a.NumRows; row++ {
		touched, out := c.Row(row)
		n := 0
		cols, vals := a.Row(row)
		for k, ak := range cols {
			v := vals[k]
			bc, bv := b.Row(ak)
			for t, j := range bc {
				if mark[j] != row+1 {
					mark[j] = row + 1
					acc[j] = v * bv[t]
					touched[n] = j
					n++
				} else {
					acc[j] += v * bv[t]
				}
			}
		}
		slices.Sort(touched)
		for t, j := range touched {
			out[t] = acc[j]
		}
	}
}

// colVal is one (column, value) entry of a partial output row.
type colVal struct {
	c int32
	v float32
}

// spgemmMergeRows is the sorted-merge Gustavson loop over C's
// preallocated rows: the partial row stays sorted and each scaled B row
// is two-way merged into it. cur and next each hold the longest row of C,
// which bounds every partial row, since a partial row's columns are a
// subset of the final row's.
//
//repro:noalloc
func spgemmMergeRows(a, b, c *sparse.CSR, cur, next []colVal) {
	for row := int32(0); row < a.NumRows; row++ {
		n := 0
		cols, vals := a.Row(row)
		for k, ak := range cols {
			v := vals[k]
			bc, bv := b.Row(ak)
			m, i, j := 0, 0, 0
			for i < n || j < len(bc) {
				switch {
				case j >= len(bc) || (i < n && cur[i].c < bc[j]):
					next[m] = cur[i]
					i++
				case i >= n || bc[j] < cur[i].c:
					next[m] = colVal{bc[j], v * bv[j]}
					j++
				default:
					next[m] = colVal{cur[i].c, cur[i].v + v*bv[j]}
					i++
					j++
				}
				m++
			}
			cur, next, n = next, cur, m
		}
		outCols, outVals := c.Row(row)
		for t, cv := range cur[:n] {
			outCols[t] = cv.c
			outVals[t] = cv.v
		}
	}
}

// SpGEMMInfo is the structure-only (symbolic) analysis of C = A·B: the
// work and output size Gustavson's numeric phase will incur, computed
// without touching values. Both counts are invariant under symmetric
// relabeling of the operands, so a bound derived from the original matrix
// stays valid for every reordering of it.
type SpGEMMInfo struct {
	// NNZC is the number of stored nonzeros of C (cancellation entries
	// included, matching the numeric kernels).
	NNZC int64
	// Flops is the number of multiply–add pairs: Σ over nonzeros a_ik of
	// nnz(B row k). The arithmetic work is 2·Flops FLOPs.
	Flops int64
	// RowNNZ is the per-row nonzero count of C (len A.NumRows).
	RowNNZ []int32
}

// CompressionRatio returns Flops/NNZC — how many intermediate products
// merge into each stored output entry, the locality headroom cluster-wise
// execution exploits. Zero-output products report 0.
func (i SpGEMMInfo) CompressionRatio() float64 {
	if i.NNZC == 0 {
		return 0
	}
	return float64(i.Flops) / float64(i.NNZC)
}

// SpGEMMSymbolic runs the symbolic phase of C = A·B: per-row output sizes,
// total nonzeros, and the exact flop count. O(Flops) time, O(B.NumCols)
// scratch.
func SpGEMMSymbolic(a, b *sparse.CSR) (SpGEMMInfo, error) {
	check.AssertCSR(a)
	check.AssertCSR(b)
	if err := spgemmShapeCheck(a, b); err != nil {
		return SpGEMMInfo{}, err
	}
	info := SpGEMMInfo{RowNNZ: make([]int32, a.NumRows)}
	info.Flops, info.NNZC = spgemmCountRows(a, b, info.RowNNZ, make([]int32, b.NumCols))
	return info, nil
}

// SpGEMMClusterStats reports the execution profile of one cluster-wise
// SpGEMM run: how large the per-tile accumulators grew and how much B-row
// reuse the tiling captured.
type SpGEMMClusterStats struct {
	// Tiles is the number of row tiles executed.
	Tiles int
	// MaxTileAccEntries is the largest number of accumulator entries
	// (output nonzeros) live in any one tile at spill time.
	MaxTileAccEntries int64
	// TotalAccEntries sums accumulator entries over all tiles — equal to
	// nnz(C), since every output entry is accumulated exactly once.
	TotalAccEntries int64
	// DistinctBRowLoads sums, over tiles, the number of distinct B rows
	// the tile references: the irregular loads cluster-wise execution
	// actually issues. Row-wise execution issues one per A-nonzero
	// (= nnz(A)); the gap is the reuse the schedule captured.
	DistinctBRowLoads int64
	// Flops is the multiply–add pair count, identical to the row-wise
	// schedule's.
	Flops int64
}

// MaxTileAccBytes returns the peak per-tile accumulator footprint in
// bytes: each live entry holds a 4-byte column index and a 4-byte value.
func (s SpGEMMClusterStats) MaxTileAccBytes() int64 { return 8 * s.MaxTileAccEntries }

// validTiles checks that tiles exactly partition [0, n) in ascending
// contiguous order — the contract SpGEMMClusterWise inherits from
// community.Shards.
func validTiles(tiles []community.Shard, n int32) error {
	var lo int32
	for i, t := range tiles {
		if t.Lo != lo || t.Hi < t.Lo {
			return fmt.Errorf("kernels: tile %d spans [%d,%d), want contiguous from %d", i, t.Lo, t.Hi, lo)
		}
		lo = t.Hi
	}
	if lo != n {
		return fmt.Errorf("kernels: tiles cover [0,%d), want [0,%d)", lo, n)
	}
	return nil
}

// SpGEMMClusterWise computes C = A·B with cluster-wise execution (arXiv
// 2507.21253): the Gustavson outer loop is tiled by the given contiguous
// row blocks — community.Shards(A.NumRows) when tiles is nil — and each
// tile runs a two-phase schedule. The symbolic phase lays out the tile's
// sorted output rows and records, for every product, the slot of C it
// lands in; the numeric phase visits the tile's A-nonzeros grouped by
// column k (ascending), loading each distinct B row once per tile and
// scattering it into every output row of the tile that needs it. All
// accumulation for the tile stays resident until the tile spills to C.
// Besides C, the call holds O(A.NumCols + B.NumCols) scratch plus, for
// its largest multi-row tile, one entry per A-nonzero and one int32 slot
// per product; a single-row tile scatters without slots. Like SpGEMM, it
// returns an error before allocating C's column and value arrays when
// nnz(C) overflows int32.
//
// After a community reordering, rows in a tile share column structure, so
// the distinct-B-row loads per tile drop — the first place the reordering
// and the kernel schedule cooperate. Output values are bit-identical to
// both row-wise strategies because each c_ij still accumulates in
// ascending-k order.
func SpGEMMClusterWise(a, b *sparse.CSR, tiles []community.Shard) (*sparse.CSR, SpGEMMClusterStats, error) {
	check.AssertCSR(a)
	check.AssertCSR(b)
	var stats SpGEMMClusterStats
	if err := spgemmShapeCheck(a, b); err != nil {
		return nil, stats, err
	}
	if tiles == nil {
		tiles = community.Shards(a.NumRows)
	}
	if err := validTiles(tiles, a.NumRows); err != nil {
		return nil, stats, err
	}
	mark := make([]int32, b.NumCols)
	out, flops, err := spgemmOutput(a, b, mark)
	if err != nil {
		return nil, stats, err
	}
	clear(mark)
	var maxNNZ int32
	var maxFlops int
	for _, t := range tiles {
		if t.Hi-t.Lo < 2 {
			continue
		}
		lo, hi := a.RowOffsets[t.Lo], a.RowOffsets[t.Hi]
		f := 0
		for _, k := range a.ColIndices[lo:hi] {
			f += int(b.RowLen(k))
		}
		maxNNZ = max(maxNNZ, hi-lo)
		maxFlops = max(maxFlops, f)
	}
	s := &clusterScratch{
		mark:    mark,
		pos:     make([]int32, b.NumCols),
		kTile:   make([]int32, b.NumRows),
		kNext:   make([]int32, b.NumRows),
		keys:    make([]int32, maxNNZ),
		entries: make([]clusterEntry, maxNNZ),
		slots:   make([]int32, maxFlops),
	}
	stats = SpGEMMClusterStats{Tiles: len(tiles), TotalAccEntries: int64(out.NNZ()), Flops: flops}
	for _, t := range tiles {
		stats.MaxTileAccEntries = max(stats.MaxTileAccEntries, int64(out.RowOffsets[t.Hi]-out.RowOffsets[t.Lo]))
		stats.DistinctBRowLoads += spgemmClusterTile(a, b, out, t, s)
	}
	return check.CSR(out), stats, nil
}

// clusterScratch is SpGEMMClusterWise's working memory: allocated once per
// call, sized for its largest tile, and reused by every row and tile.
type clusterScratch struct {
	mark    []int32 // per column of C: row+1 of the last row that touched it
	pos     []int32 // per column of C: its slot of C in the current row
	kTile   []int32 // per row of B: Hi of the last tile that bucketed it
	kNext   []int32 // per row of B: its bucket's size, then next free index
	keys    []int32 // the tile's distinct B rows
	entries []clusterEntry
	slots   []int32 // per product of the tile: the slot of C it lands in
}

// clusterEntry is one A-nonzero a_ik of a tile, placed in its k bucket:
// its value and the index of its first scatter slot.
type clusterEntry struct {
	slot int
	v    float32
}

// spgemmClusterRow writes row r of C's sorted column indices into the
// row's preallocated span and maps each column to its slot in s.pos.
//
//repro:noalloc
func spgemmClusterRow(a, b, c *sparse.CSR, r int32, s *clusterScratch) {
	lo := c.RowOffsets[r]
	cols, _ := c.Row(r)
	n := 0
	ks, _ := a.Row(r)
	for _, k := range ks {
		bc, _ := b.Row(k)
		for _, j := range bc {
			if s.mark[j] != r+1 {
				s.mark[j] = r + 1
				cols[n] = j
				n++
			}
		}
	}
	slices.Sort(cols)
	for x, j := range cols {
		s.pos[j] = lo + int32(x)
	}
}

// spgemmClusterTile computes tile t's rows of C into the spans
// spgemmOutput laid out and returns how many distinct B rows it loaded.
//
//repro:noalloc
func spgemmClusterTile(a, b, c *sparse.CSR, t community.Shard, s *clusterScratch) int64 {
	if t.Hi-t.Lo == 1 {
		// A's row ascends in k, so each B row scatters straight into C.
		spgemmClusterRow(a, b, c, t.Lo, s)
		ks, vs := a.Row(t.Lo)
		for e, k := range ks {
			bc, bv := b.Row(k)
			for x, j := range bc {
				c.Values[s.pos[j]] += vs[e] * bv[x]
			}
		}
		return int64(len(ks))
	}
	// Counting sort of the tile's A-nonzeros by k: size each distinct k's
	// bucket, then lay the buckets out in ascending k. t.Hi tells this
	// tile's marks apart from those of every earlier non-empty tile.
	nk := 0
	for _, k := range a.ColIndices[a.RowOffsets[t.Lo]:a.RowOffsets[t.Hi]] {
		if s.kTile[k] != t.Hi {
			s.kTile[k] = t.Hi
			s.kNext[k] = 0
			s.keys[nk] = k
			nk++
		}
		s.kNext[k]++
	}
	keys := s.keys[:nk]
	slices.Sort(keys)
	var start int32
	for _, k := range keys {
		size := s.kNext[k]
		s.kNext[k] = start
		start += size
	}
	// Symbolic phase: lay out each row, place its A-nonzeros in their
	// buckets, and record the slot of every product. Rows ascend, so each
	// bucket keeps row order.
	slot := 0
	for r := t.Lo; r < t.Hi; r++ {
		spgemmClusterRow(a, b, c, r, s)
		ks, vs := a.Row(r)
		for e, k := range ks {
			s.entries[s.kNext[k]] = clusterEntry{slot: slot, v: vs[e]}
			s.kNext[k]++
			bc, _ := b.Row(k)
			for _, j := range bc {
				s.slots[slot] = s.pos[j]
				slot++
			}
		}
	}
	// Numeric phase, k-major: each distinct B row is loaded once, and each
	// c_ij accumulates in ascending k (one contribution per k, since A's
	// rows are duplicate-free).
	var lo int32
	for _, k := range keys {
		_, bv := b.Row(k)
		for _, en := range s.entries[lo:s.kNext[k]] {
			slots := s.slots[en.slot:]
			slots = slots[:len(bv)]
			for x, w := range bv {
				c.Values[slots[x]] += en.v * w
			}
		}
		lo = s.kNext[k]
	}
	return int64(nk)
}

// SpGEMMTileFootprint returns the peak number of accumulator entries any
// single tile holds at spill time, computed from the symbolic per-row
// output sizes (SpGEMMInfo.RowNNZ, in the same row order as the tiles)
// without executing the kernel. Multiply by 8 for bytes: each live entry
// is a 4-byte column index plus a 4-byte value.
func SpGEMMTileFootprint(rowNNZ []int32, tiles []community.Shard) int64 {
	var peak int64
	for _, t := range tiles {
		var sum int64
		for r := t.Lo; r < t.Hi; r++ {
			sum += int64(rowNNZ[r])
		}
		if sum > peak {
			peak = sum
		}
	}
	return peak
}

// SpGEMMReferenceInt64 computes C = A·B by the naive dense triple loop in
// exact int64 arithmetic — the differential oracle the fast strategies are
// checked against. Operand values are truncated to int64, so it is only
// meaningful for integer-valued matrices (which the SpGEMM test corpus
// guarantees); within that domain the comparison is exact, immune to
// float accumulation-order effects.
func SpGEMMReferenceInt64(a, b *sparse.CSR) ([][]int64, error) {
	if err := spgemmShapeCheck(a, b); err != nil {
		return nil, err
	}
	dense := make([][]int64, a.NumRows)
	for i := range dense {
		dense[i] = make([]int64, b.NumCols)
	}
	for i := int32(0); i < a.NumRows; i++ {
		cols, vals := a.Row(i)
		for k, ak := range cols {
			v := int64(vals[k])
			bc, bv := b.Row(ak)
			for t, j := range bc {
				dense[i][j] += v * int64(bv[t])
			}
		}
	}
	return dense, nil
}

// CSRToDenseInt64 expands a CSR matrix into a dense int64 grid, truncating
// values; the companion of SpGEMMReferenceInt64 for exact comparison of
// integer-valued results (explicit zeros disappear, so cancellation cannot
// produce false pattern mismatches).
func CSRToDenseInt64(m *sparse.CSR) [][]int64 {
	dense := make([][]int64, m.NumRows)
	for i := range dense {
		dense[i] = make([]int64, m.NumCols)
	}
	for i := int32(0); i < m.NumRows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			dense[i][c] = int64(vals[k])
		}
	}
	return dense
}
