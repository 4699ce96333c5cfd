// Device-attributed reference streams for the multi-device cache model
// (internal/multidev): each kernel's trace is re-emitted as (device, line)
// pairs, where the device is the compute tile that executes the access —
// the owner of the outer-loop row driving it — alongside a line→home map
// classifying which device each cache line's data is homed on. The line
// sequence of every owned generator is bit-identical to its unowned
// counterpart (pinned by TestOwnedMatchesUnowned and the corpus-scale
// K=1 differential in internal/experiments), so a single-device owned
// simulation reproduces the flat path exactly.
package trace

import (
	"fmt"

	"repro/internal/sparse"
)

// OwnedTrace bundles a device-attributed reference stream with the home
// map of its address space.
type OwnedTrace struct {
	// Trace emits (device, line) pairs in program order. The line
	// sequence is bit-identical to the unowned generator over the same
	// operands; the device tag is the owner of the row (or nonzero, for
	// COO) whose execution issues the access.
	Trace func(emit func(dev int32, line int64))
	// Home maps every line ID of the layout (index = line ID, length =
	// footprint in lines) to the device the line's data is homed on:
	// the owner of the line's first element. Operand arrays are
	// distributed row-wise by the same owner labels that attribute the
	// stream, so X[v] and Y[v] live with vertex v's owner and a row's
	// CSR slices live with that row's owner.
	Home []int32
}

// ownedStream coalesces sequential accesses to one array exactly like
// stream (same emit-twice discipline, same per-stream last-line state)
// while tagging each emission with the executing device.
type ownedStream struct {
	last int64
	emit func(int32, int64)
}

func newOwnedStream(emit func(int32, int64)) *ownedStream {
	return &ownedStream{last: -1, emit: emit}
}

func (s *ownedStream) access(dev int32, line int64) {
	if line != s.last {
		s.last = line
		s.emit(dev, line)
		s.emit(dev, line)
	}
}

// homeBuilder fills a line→device table region by region. Claims must be
// issued in ascending address order; the first element touching a line
// decides its home (later claims of an already-claimed line are ignored),
// which makes the map deterministic and independent of how many elements
// share a line.
type homeBuilder struct {
	lineBytes int64
	next      int64 // first unclaimed line
	home      []int32
}

func newHomeBuilder(end, lineBytes int64) *homeBuilder {
	return &homeBuilder{lineBytes: lineBytes, home: make([]int32, end/lineBytes)}
}

// claim assigns dev to the not-yet-claimed lines covering the byte range
// [addr, addr+bytes).
func (h *homeBuilder) claim(addr, bytes int64, dev int32) {
	if bytes <= 0 {
		return
	}
	lo := addr / h.lineBytes
	hi := (addr + bytes - 1) / h.lineBytes
	if lo < h.next {
		lo = h.next
	}
	for ln := lo; ln <= hi; ln++ {
		h.home[ln] = dev
	}
	if hi+1 > h.next {
		h.next = hi + 1
	}
}

// checkOwner validates an owner vector against the expected vertex count.
func checkOwner(owner []int32, n int32, kernel string) {
	if len(owner) != int(n) {
		panic(fmt.Sprintf("trace: %s with %d owner labels for %d rows", kernel, len(owner), n))
	}
}

// SpMVCSROwned returns the device-attributed CSR SpMV reference stream:
// the same line sequence as SpMVCSR, with every access of row r's work
// tagged owner[r], plus the layout's home map (Y[r], the row-offset
// entry, and row r's coords/values slices are homed on owner[r]; X[v] on
// owner[v]). owner must hold one device label per row.
func SpMVCSROwned(m *sparse.CSR, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, m.NumRows, "SpMVCSROwned")
	n, nnz := int64(m.NumRows), int64(m.NNZ())
	l := NewLayout(n, nnz, 1, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	for r := int64(0); r < n; r++ {
		h.claim(l.Y+r*ElemBytes, ElemBytes, owner[r])
	}
	for r := int64(0); r < n; r++ {
		h.claim(l.RowOff+r*ElemBytes, ElemBytes, owner[r])
	}
	if n > 0 {
		h.claim(l.RowOff+n*ElemBytes, ElemBytes, owner[n-1])
	}
	for _, base := range []int64{l.Col, l.Val} {
		for r := int64(0); r < n; r++ {
			lo, hi := int64(m.RowOffsets[r]), int64(m.RowOffsets[r+1])
			h.claim(base+lo*ElemBytes, (hi-lo)*ElemBytes, owner[r])
		}
	}
	for v := int64(0); v < n; v++ {
		h.claim(l.X+v*ElemBytes, ElemBytes, owner[v])
	}
	yB, roB, colB, valB, xB := l.lines()
	return OwnedTrace{
		Home: h.home,
		Trace: func(emit func(int32, int64)) {
			roS := newOwnedStream(emit)
			colS := newOwnedStream(emit)
			valS := newOwnedStream(emit)
			yS := newOwnedStream(emit)
			for row := int64(0); row < n; row++ {
				dev := owner[row]
				roS.access(dev, roB+row*ElemBytes/lineBytes)
				roS.access(dev, roB+(row+1)*ElemBytes/lineBytes)
				start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
				for i := start; i < end; i++ {
					colS.access(dev, colB+i*ElemBytes/lineBytes)
					valS.access(dev, valB+i*ElemBytes/lineBytes)
					emit(dev, xB+int64(m.ColIndices[i])*ElemBytes/lineBytes)
				}
				yS.access(dev, yB+row*ElemBytes/lineBytes)
			}
		},
	}
}

// SpMVCOOOwned returns the device-attributed COO SpMV reference stream:
// the same line sequence as SpMVCOO, with nonzero k's accesses tagged
// owner[RowIdx[k]]. The triplet arrays are homed per entry with the
// entry's row owner; X and Y per vertex. owner must hold one device
// label per row.
func SpMVCOOOwned(c *sparse.COO, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, c.NumRows, "SpMVCOOOwned")
	n, nnz := int64(c.NumRows), int64(c.NNZ())
	l := NewLayoutCOO(n, nnz, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	for r := int64(0); r < n; r++ {
		h.claim(l.Y+r*ElemBytes, ElemBytes, owner[r])
	}
	for _, base := range []int64{l.RowOff, l.Col, l.Val} {
		for k := int64(0); k < nnz; k++ {
			h.claim(base+k*ElemBytes, ElemBytes, owner[c.RowIdx[k]])
		}
	}
	for v := int64(0); v < n; v++ {
		h.claim(l.X+v*ElemBytes, ElemBytes, owner[v])
	}
	yB, rowB, colB, valB, xB := l.lines()
	return OwnedTrace{
		Home: h.home,
		Trace: func(emit func(int32, int64)) {
			rowS := newOwnedStream(emit)
			colS := newOwnedStream(emit)
			valS := newOwnedStream(emit)
			yS := newOwnedStream(emit)
			for k := range c.RowIdx {
				i := int64(k)
				dev := owner[c.RowIdx[k]]
				rowS.access(dev, rowB+i*ElemBytes/lineBytes)
				colS.access(dev, colB+i*ElemBytes/lineBytes)
				valS.access(dev, valB+i*ElemBytes/lineBytes)
				emit(dev, xB+int64(c.ColIdx[k])*ElemBytes/lineBytes)
				yS.access(dev, yB+int64(c.RowIdx[k])*ElemBytes/lineBytes)
			}
		},
	}
}

// SpMMCSROwned returns the device-attributed SpMM reference stream: the
// same line sequence as SpMMCSR with row r's work tagged owner[r]. The
// dense C and B rows are homed with their matrix row's owner. owner must
// hold one device label per row.
func SpMMCSROwned(m *sparse.CSR, k int64, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, m.NumRows, "SpMMCSROwned")
	if k < 1 {
		panic(fmt.Sprintf("trace: SpMM with k = %d", k))
	}
	n, nnz := int64(m.NumRows), int64(m.NNZ())
	l := NewLayout(n, nnz, k, lineBytes)
	rowBytes := k * ElemBytes
	h := newHomeBuilder(l.End, lineBytes)
	for r := int64(0); r < n; r++ {
		h.claim(l.Y+r*rowBytes, rowBytes, owner[r])
	}
	for r := int64(0); r < n; r++ {
		h.claim(l.RowOff+r*ElemBytes, ElemBytes, owner[r])
	}
	if n > 0 {
		h.claim(l.RowOff+n*ElemBytes, ElemBytes, owner[n-1])
	}
	for _, base := range []int64{l.Col, l.Val} {
		for r := int64(0); r < n; r++ {
			lo, hi := int64(m.RowOffsets[r]), int64(m.RowOffsets[r+1])
			h.claim(base+lo*ElemBytes, (hi-lo)*ElemBytes, owner[r])
		}
	}
	for v := int64(0); v < n; v++ {
		h.claim(l.X+v*rowBytes, rowBytes, owner[v])
	}
	cB, roB, colB, valB, bB := l.lines()
	return OwnedTrace{
		Home: h.home,
		Trace: func(emit func(int32, int64)) {
			roS := newOwnedStream(emit)
			colS := newOwnedStream(emit)
			valS := newOwnedStream(emit)
			cS := newOwnedStream(emit)
			for row := int64(0); row < n; row++ {
				dev := owner[row]
				roS.access(dev, roB+row*ElemBytes/lineBytes)
				roS.access(dev, roB+(row+1)*ElemBytes/lineBytes)
				start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
				for i := start; i < end; i++ {
					colS.access(dev, colB+i*ElemBytes/lineBytes)
					valS.access(dev, valB+i*ElemBytes/lineBytes)
					off := int64(m.ColIndices[i]) * rowBytes
					for ln, last := bB+off/lineBytes, bB+(off+rowBytes-1)/lineBytes; ln <= last; ln++ {
						emit(dev, ln)
					}
				}
				off := row * rowBytes
				for ln, last := cB+off/lineBytes, cB+(off+rowBytes-1)/lineBytes; ln <= last; ln++ {
					cS.access(dev, ln)
				}
			}
		},
	}
}

// SpGEMMOwned returns the device-attributed row-wise Gustavson SpGEMM
// reference stream of C = A·B: the same line sequence as SpGEMM, with A
// row r's work — including its B-row dereferences — tagged owner[r].
// A's and C's row slices are homed with owner[row]; B's row-offset entry
// and row slices with owner[k] of the B row they store, so a cross-device
// A-nonzero turns its B-row fetch into inter-device traffic exactly as a
// partitioned SpGEMM would. Requires a.NumRows == b.NumRows (the square
// C = A·A products the experiments run); owner holds one label per row.
func SpGEMMOwned(a, b *sparse.CSR, cRowNNZ []int32, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, a.NumRows, "SpGEMMOwned")
	if a.NumRows != b.NumRows {
		panic(fmt.Sprintf("trace: SpGEMMOwned with %d A rows but %d B rows", a.NumRows, b.NumRows))
	}
	if len(cRowNNZ) != int(a.NumRows) {
		panic(fmt.Sprintf("trace: SpGEMM with %d C row sizes for %d rows", len(cRowNNZ), a.NumRows))
	}
	cOff := make([]int64, int(a.NumRows)+1)
	for i, nnz := range cRowNNZ {
		cOff[i+1] = cOff[i] + int64(nnz)
	}
	an, bn := int64(a.NumRows), int64(b.NumRows)
	l := NewSpGEMMLayout(an, int64(a.NNZ()), bn, int64(b.NNZ()), cOff[a.NumRows], lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	claimCSR := func(roBase, colBase, valBase int64, m *sparse.CSR) {
		n := int64(m.NumRows)
		for r := int64(0); r < n; r++ {
			h.claim(roBase+r*ElemBytes, ElemBytes, owner[r])
		}
		if n > 0 {
			h.claim(roBase+n*ElemBytes, ElemBytes, owner[n-1])
		}
		for _, base := range []int64{colBase, valBase} {
			for r := int64(0); r < n; r++ {
				lo, hi := int64(m.RowOffsets[r]), int64(m.RowOffsets[r+1])
				h.claim(base+lo*ElemBytes, (hi-lo)*ElemBytes, owner[r])
			}
		}
	}
	claimCSR(l.ARowOff, l.ACol, l.AVal, a)
	claimCSR(l.BRowOff, l.BCol, l.BVal, b)
	for r := int64(0); r < an; r++ {
		h.claim(l.CRowOff+r*ElemBytes, ElemBytes, owner[r])
	}
	if an > 0 {
		h.claim(l.CRowOff+an*ElemBytes, ElemBytes, owner[an-1])
	}
	for _, base := range []int64{l.CCol, l.CVal} {
		for r := int64(0); r < an; r++ {
			h.claim(base+cOff[r]*ElemBytes, (cOff[r+1]-cOff[r])*ElemBytes, owner[r])
		}
	}
	aRoB, aColB, aValB := l.ARowOff/lineBytes, l.ACol/lineBytes, l.AVal/lineBytes
	bRoB, bColB, bValB := l.BRowOff/lineBytes, l.BCol/lineBytes, l.BVal/lineBytes
	cRoB, cColB, cValB := l.CRowOff/lineBytes, l.CCol/lineBytes, l.CVal/lineBytes
	return OwnedTrace{
		Home: h.home,
		Trace: func(emit func(int32, int64)) {
			aRoS := newOwnedStream(emit)
			aColS := newOwnedStream(emit)
			aValS := newOwnedStream(emit)
			cRoS := newOwnedStream(emit)
			cColS := newOwnedStream(emit)
			cValS := newOwnedStream(emit)
			for row := int64(0); row < an; row++ {
				dev := owner[row]
				aRoS.access(dev, aRoB+row*ElemBytes/lineBytes)
				aRoS.access(dev, aRoB+(row+1)*ElemBytes/lineBytes)
				start, end := int64(a.RowOffsets[row]), int64(a.RowOffsets[row+1])
				for i := start; i < end; i++ {
					aColS.access(dev, aColB+i*ElemBytes/lineBytes)
					aValS.access(dev, aValB+i*ElemBytes/lineBytes)
					k := int64(a.ColIndices[i])
					emit(dev, bRoB+k*ElemBytes/lineBytes)
					emit(dev, bRoB+(k+1)*ElemBytes/lineBytes)
					bs, be := int64(b.RowOffsets[k]), int64(b.RowOffsets[k+1])
					if be == bs {
						continue
					}
					for ln, last := bColB+bs*ElemBytes/lineBytes, bColB+(be*ElemBytes-1)/lineBytes; ln <= last; ln++ {
						emit(dev, ln)
					}
					for ln, last := bValB+bs*ElemBytes/lineBytes, bValB+(be*ElemBytes-1)/lineBytes; ln <= last; ln++ {
						emit(dev, ln)
					}
				}
				cRoS.access(dev, cRoB+row*ElemBytes/lineBytes)
				cRoS.access(dev, cRoB+(row+1)*ElemBytes/lineBytes)
				for i := cOff[row]; i < cOff[row+1]; i++ {
					cColS.access(dev, cColB+i*ElemBytes/lineBytes)
					cValS.access(dev, cValB+i*ElemBytes/lineBytes)
				}
			}
		},
	}
}
