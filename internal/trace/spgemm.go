package trace

import (
	"fmt"

	"repro/internal/community"
	"repro/internal/sparse"
)

// SpGEMMLayout assigns non-overlapping, line-aligned base addresses to the
// nine operand arrays of C = A·B over CSR: row offsets, column indices,
// and values for each of A, B, and C.
type SpGEMMLayout struct {
	// LineBytes is the cache-line size; every base below is a multiple.
	LineBytes int64
	// ARowOff, ACol, AVal are the CSR arrays of the A operand.
	ARowOff, ACol, AVal int64
	// BRowOff, BCol, BVal are the CSR arrays of the B operand.
	BRowOff, BCol, BVal int64
	// CRowOff, CCol, CVal are the CSR arrays of the output C.
	CRowOff, CCol, CVal int64
	// End is the first byte past the last operand — the total footprint.
	End int64
}

// NewSpGEMMLayout lays the three CSR matrices out back to back with line
// alignment: A's arrays, then B's, then C's. cNNZ comes from the symbolic
// phase (kernels.SpGEMMSymbolic) — C's extent is data-dependent.
func NewSpGEMMLayout(aRows, aNNZ, bRows, bNNZ, cNNZ, lineBytes int64) SpGEMMLayout {
	align := func(x int64) int64 { return (x + lineBytes - 1) / lineBytes * lineBytes }
	l := SpGEMMLayout{LineBytes: lineBytes}
	cursor := int64(0)
	next := func(entries int64) int64 {
		base := cursor
		cursor = align(cursor + entries*ElemBytes)
		return base
	}
	l.ARowOff = next(aRows + 1)
	l.ACol = next(aNNZ)
	l.AVal = next(aNNZ)
	l.BRowOff = next(bRows + 1)
	l.BCol = next(bNNZ)
	l.BVal = next(bNNZ)
	l.CRowOff = next(aRows + 1)
	l.CCol = next(cNNZ)
	l.CVal = next(cNNZ)
	l.End = cursor
	return l
}

// SpGEMM returns the row-wise Gustavson reference stream of C = A·B:
// A's arrays and C's arrays stream sequentially, while every A-nonzero
// dereferences one row of B — two row-offset entries plus the row's
// column/value segments — making B the irregular operand whose locality
// community reordering improves. cRowNNZ is the symbolic per-row output
// size (kernels.SpGEMMSymbolic's RowNNZ), needed to lay out and stream
// the data-dependent C arrays.
func SpGEMM(a, b *sparse.CSR, cRowNNZ []int32, lineBytes int64) func(emit func(int64)) {
	return spgemmStream(a, b, cRowNNZ, nil, lineBytes)
}

// SpGEMMCluster returns the cluster-wise reference stream of C = A·B: the
// Gustavson outer loop is tiled by the given contiguous row blocks, each
// distinct B row is referenced once per tile (the tile's accumulator and
// already-loaded B rows are modeled as cache-resident for the tile's
// duration), and the tile's C rows spill — stream out — at tile end. The
// row-wise stream is the degenerate case of one-row tiles.
func SpGEMMCluster(a, b *sparse.CSR, cRowNNZ []int32, tiles []community.Shard, lineBytes int64) func(emit func(int64)) {
	if tiles == nil {
		tiles = community.Shards(a.NumRows)
	}
	return spgemmStream(a, b, cRowNNZ, tiles, lineBytes)
}

// spgemmStream is the shared generator: nil tiles means row-wise
// (every row its own tile, with no dedup state needed because a CSR row's
// column indices are already distinct).
func spgemmStream(a, b *sparse.CSR, cRowNNZ []int32, tiles []community.Shard, lineBytes int64) func(emit func(int64)) {
	if len(cRowNNZ) != int(a.NumRows) {
		panic(fmt.Sprintf("trace: SpGEMM with %d C row sizes for %d rows", len(cRowNNZ), a.NumRows))
	}
	cOff := make([]int64, int(a.NumRows)+1)
	for i, nnz := range cRowNNZ {
		cOff[i+1] = cOff[i] + int64(nnz)
	}
	// Base line of every array: the bases are line-aligned, so element i
	// lies on line base + i*ElemBytes/lineBytes.
	l := NewSpGEMMLayout(int64(a.NumRows), int64(a.NNZ()), int64(b.NumRows), int64(b.NNZ()), cOff[a.NumRows], lineBytes)
	aRoB, aColB, aValB := l.ARowOff/lineBytes, l.ACol/lineBytes, l.AVal/lineBytes
	bRoB, bColB, bValB := l.BRowOff/lineBytes, l.BCol/lineBytes, l.BVal/lineBytes
	cRoB, cColB, cValB := l.CRowOff/lineBytes, l.CCol/lineBytes, l.CVal/lineBytes
	return func(emit func(int64)) {
		aRoS := newStream(emit)
		aColS := newStream(emit)
		aValS := newStream(emit)
		cRoS := newStream(emit)
		cColS := newStream(emit)
		cValS := newStream(emit)
		// seen[k] == gen marks B row k as already loaded this tile.
		var seen []int64
		if tiles != nil {
			seen = make([]int64, b.NumRows)
		}
		tile := func(lo, hi int32, gen int64) {
			for row := int64(lo); row < int64(hi); row++ {
				aRoS.access(aRoB + row*ElemBytes/lineBytes)
				aRoS.access(aRoB + (row+1)*ElemBytes/lineBytes)
				start, end := int64(a.RowOffsets[row]), int64(a.RowOffsets[row+1])
				for i := start; i < end; i++ {
					aColS.access(aColB + i*ElemBytes/lineBytes)
					aValS.access(aValB + i*ElemBytes/lineBytes)
					k := int64(a.ColIndices[i])
					// The B row dereference: two offset entries, then the
					// row's column/value segments if not tile-resident.
					emit(bRoB + k*ElemBytes/lineBytes)
					emit(bRoB + (k+1)*ElemBytes/lineBytes)
					if seen != nil {
						if seen[k] == gen {
							continue
						}
						seen[k] = gen
					}
					bs, be := int64(b.RowOffsets[k]), int64(b.RowOffsets[k+1])
					if be == bs {
						continue
					}
					for ln, last := bColB+bs*ElemBytes/lineBytes, bColB+(be*ElemBytes-1)/lineBytes; ln <= last; ln++ {
						emit(ln)
					}
					for ln, last := bValB+bs*ElemBytes/lineBytes, bValB+(be*ElemBytes-1)/lineBytes; ln <= last; ln++ {
						emit(ln)
					}
				}
			}
			// Tile accumulators spill: the tile's C rows stream out.
			for row := int64(lo); row < int64(hi); row++ {
				cRoS.access(cRoB + row*ElemBytes/lineBytes)
				cRoS.access(cRoB + (row+1)*ElemBytes/lineBytes)
				for i := cOff[row]; i < cOff[row+1]; i++ {
					cColS.access(cColB + i*ElemBytes/lineBytes)
					cValS.access(cValB + i*ElemBytes/lineBytes)
				}
			}
		}
		if tiles == nil {
			for row := int32(0); row < a.NumRows; row++ {
				tile(row, row+1, 0)
			}
			return
		}
		for t, tl := range tiles {
			tile(tl.Lo, tl.Hi, int64(t)+1)
		}
	}
}
