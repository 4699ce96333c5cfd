// Package trace generates the line-granular memory reference streams of the
// sparse kernels the paper studies: SpMV over CSR (Algorithm 1), SpMV over
// COO, and SpMM over CSR with a dense right-hand side (Section VI-D).
//
// The reference stream is what the paper's L2 model consumes: streaming
// operands (the output vector, the CSR arrays, the dense result) appear
// once per touched cache line in program order, while the irregular input
// vector (or dense B rows for SpMM) is referenced on every nonzero — the
// access pattern whose locality matrix reordering improves.
//
// Line IDs are computed by shift, never by division: a byte address a lies
// on line a>>s with s = log2 of the line size, so every generator takes a
// power-of-two line size and panics on any other (cachesim.Config.Validate
// rejects such a geometry first). Operands start on line boundaries, so
// element i of an operand of e-byte elements at base line b lies on line
// b + i*e>>s, and a contiguous run of elements (a B row, a spilled C row)
// is walked one line at a time rather than one element at a time.
package trace

import (
	"fmt"
	"math/bits"

	"repro/internal/sparse"
)

// ElemBytes is the size of every matrix element, index, and vector entry,
// matching the paper's 4-byte compulsory-traffic model (Section IV-B).
const ElemBytes = 4

// Layout assigns non-overlapping, line-aligned base addresses to the
// operand arrays of a kernel over an n×n matrix with nnz nonzeros and an
// optional dense operand of k columns.
type Layout struct {
	// LineBytes is the cache-line size; every base below is a multiple.
	LineBytes int64
	Y         int64 // output vector / dense C
	RowOff    int64 // CSR row offsets (or COO row indices)
	Col       int64 // column indices
	Val       int64 // values
	X         int64 // input vector / dense B
	// End is the first byte past the last operand — the total footprint.
	End int64
}

// NewLayout lays the operands out back to back with line alignment:
// Y, rowOffsets, coords, values, X. For SpMM, Y and X stand for the dense
// C and B arrays (k columns each).
func NewLayout(n, nnz int64, k int64, lineBytes int64) Layout {
	return newLayout(n, nnz, k, n+1, lineBytes)
}

// NewLayoutCOO lays out the COO kernel's operands: the row-index array has
// one entry per nonzero rather than n+1 offsets.
func NewLayoutCOO(n, nnz int64, lineBytes int64) Layout {
	return newLayout(n, nnz, 1, nnz, lineBytes)
}

func newLayout(n, nnz, k, rowEntries, lineBytes int64) Layout {
	if k < 1 {
		k = 1
	}
	align := func(x int64) int64 { return (x + lineBytes - 1) / lineBytes * lineBytes }
	l := Layout{LineBytes: lineBytes}
	cursor := int64(0)
	l.Y = cursor
	cursor = align(cursor + n*k*ElemBytes)
	l.RowOff = cursor
	cursor = align(cursor + rowEntries*ElemBytes)
	l.Col = cursor
	cursor = align(cursor + nnz*ElemBytes)
	l.Val = cursor
	cursor = align(cursor + nnz*ElemBytes)
	l.X = cursor
	cursor = align(cursor + n*k*ElemBytes)
	l.End = cursor
	return l
}

// lines returns the layout's line shift sh = log2(LineBytes) and the
// first line ID of each operand, in the field order of Layout: Y, RowOff,
// Col, Val, X. Every base is line-aligned, so element i of an operand of
// e-byte elements lies on line base + i*e>>sh. Generators hold these in
// locals, so their per-access loops copy no layout and divide nothing.
func (l Layout) lines() (sh uint, y, rowOff, col, val, x int64) {
	sh = lineShift(l.LineBytes)
	return sh, l.Y >> sh, l.RowOff >> sh, l.Col >> sh, l.Val >> sh, l.X >> sh
}

// lineShift returns log2(lineBytes), panicking unless lineBytes is a
// positive power of two.
func lineShift(lineBytes int64) uint {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("trace: line size %d is not a power of two", lineBytes))
	}
	return uint(bits.TrailingZeros64(uint64(lineBytes)))
}

// stream coalesces sequential accesses to one array: it emits when the
// line differs from the previous line of the same stream. Each new line is
// emitted twice, approximating the multiple 32-byte sector reads a GPU
// issues against a 128-byte line: a streamed line is filled once and then
// hit by its remaining sectors, so fully-consumed streaming fills are
// correctly not counted as dead lines (Table III's metric).
type stream struct {
	last int64
	emit func(int64)
}

func newStream(emit func(int64)) *stream { return &stream{last: -1, emit: emit} }

func (s *stream) access(line int64) {
	if line != s.last {
		s.fill(line)
	}
}

// fill emits a new line twice. It is out of access so that the dedup
// check inlines into the generator loops.
func (s *stream) fill(line int64) {
	s.last = line
	s.emit(line)
	s.emit(line)
}

// generator is a kernel's reference stream with row announcements: before
// the accesses that one step of the outer loop issues, it calls announce
// with that step's matrix row (the nonzero's row for COO). Flat streams
// pass a nil announce and see only emit; a multi-device consumer maps each
// announced row through its owner vector (OwnedTrace).
type generator = func(announce func(row int32), emit func(line int64))

// flat drops a generator's row announcements.
func flat(g generator) func(emit func(int64)) {
	return func(emit func(int64)) { g(nil, emit) }
}

// SpMVCSR returns the reference stream of Algorithm 1 over the matrix:
// rowOffsets, coords, values, and Y stream sequentially; X is dereferenced
// per nonzero through the column index.
func SpMVCSR(m *sparse.CSR, lineBytes int64) func(emit func(int64)) {
	return flat(spmvCSR(m, lineBytes))
}

func spmvCSR(m *sparse.CSR, lineBytes int64) generator {
	sh, yB, roB, colB, valB, xB := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, lineBytes).lines()
	return func(announce func(int32), emit func(int64)) {
		roS := newStream(emit)
		colS := newStream(emit)
		valS := newStream(emit)
		yS := newStream(emit)
		for row := int64(0); row < int64(m.NumRows); row++ {
			if announce != nil {
				announce(int32(row))
			}
			roS.access(roB + row*ElemBytes>>sh)
			roS.access(roB + (row+1)*ElemBytes>>sh)
			start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
			for i := start; i < end; i++ {
				off := i * ElemBytes >> sh
				colS.access(colB + off)
				valS.access(valB + off)
				emit(xB + int64(m.ColIndices[i])*ElemBytes>>sh)
			}
			yS.access(yB + row*ElemBytes>>sh)
		}
	}
}

// SpMVCOO returns the reference stream of the COO SpMV kernel: the three
// triplet arrays stream; X is irregular per entry; Y follows the row index
// (streaming when the COO is row-sorted, irregular otherwise).
func SpMVCOO(c *sparse.COO, lineBytes int64) func(emit func(int64)) {
	return flat(spmvCOO(c, lineBytes))
}

func spmvCOO(c *sparse.COO, lineBytes int64) generator {
	sh, yB, rowB, colB, valB, xB := NewLayoutCOO(int64(c.NumRows), int64(c.NNZ()), lineBytes).lines()
	return func(announce func(int32), emit func(int64)) {
		rowS := newStream(emit)
		colS := newStream(emit)
		valS := newStream(emit)
		yS := newStream(emit)
		for k, r := range c.RowIdx {
			if announce != nil {
				announce(r)
			}
			off := int64(k) * ElemBytes >> sh
			rowS.access(rowB + off)
			colS.access(colB + off)
			valS.access(valB + off)
			emit(xB + int64(c.ColIdx[k])*ElemBytes>>sh)
			yS.access(yB + int64(r)*ElemBytes>>sh)
		}
	}
}

// SpMMCSR returns the reference stream of the SpMM kernel C = A·B with a
// dense |N|×k B: the CSR arrays and C stream; every nonzero dereferences
// the full k-element row of B (k·4 bytes, possibly spanning several
// lines) — the irregular traffic that scales with k (Table IV).
func SpMMCSR(m *sparse.CSR, k int64, lineBytes int64) func(emit func(int64)) {
	return flat(spmmCSR(m, k, lineBytes))
}

func spmmCSR(m *sparse.CSR, k int64, lineBytes int64) generator {
	if k < 1 {
		panic(fmt.Sprintf("trace: SpMM with k = %d", k))
	}
	sh, cB, roB, colB, valB, bB := NewLayout(int64(m.NumRows), int64(m.NNZ()), k, lineBytes).lines()
	rowBytes := k * ElemBytes
	return func(announce func(int32), emit func(int64)) {
		roS := newStream(emit)
		colS := newStream(emit)
		valS := newStream(emit)
		cS := newStream(emit)
		for row := int64(0); row < int64(m.NumRows); row++ {
			if announce != nil {
				announce(int32(row))
			}
			roS.access(roB + row*ElemBytes>>sh)
			roS.access(roB + (row+1)*ElemBytes>>sh)
			start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
			for i := start; i < end; i++ {
				off := i * ElemBytes >> sh
				colS.access(colB + off)
				valS.access(valB + off)
				// Touch every line spanned by B's k-element row.
				bOff := int64(m.ColIndices[i]) * rowBytes
				for ln, last := bB+bOff>>sh, bB+(bOff+rowBytes-1)>>sh; ln <= last; ln++ {
					emit(ln)
				}
			}
			// C row write streams across its spanned lines.
			cOff := row * rowBytes
			for ln, last := cB+cOff>>sh, cB+(cOff+rowBytes-1)>>sh; ln <= last; ln++ {
				cS.access(ln)
			}
		}
	}
}
