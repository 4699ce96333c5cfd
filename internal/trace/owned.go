// Device-attributed reference streams for the multi-device cache model
// (internal/multidev): a kernel's one generator, read through an owner
// vector. The generator announces the row behind each step of its outer
// loop, and the device executing the accesses that follow is that row's
// owner. A line→home map beside it classifies which device each cache
// line's data is homed on. The line sequence is the flat stream's by
// construction, so a single-device owned simulation reproduces the flat
// path exactly (pinned by the corpus-scale K=1 differential in
// internal/experiments); TestOwnedDigests pins every device tag and home.
package trace

import (
	"fmt"

	"repro/internal/sparse"
)

// OwnedTrace is a kernel's reference stream with its owner vector and the
// home map of its address space.
type OwnedTrace struct {
	// Stream runs the kernel's generator: before the accesses that one
	// step of its outer loop issues, it calls announce with that step's
	// row (the nonzero's row for COO); emit receives every line in program
	// order, the flat stream exactly.
	Stream func(announce func(row int32), emit func(line int64))
	// Owner holds the executing device of every row: the accesses that
	// follow the announcement of row r belong to device Owner[r].
	Owner []int32
	// Home maps every line ID of the layout (index = line ID, length =
	// footprint in lines) to the device the line's data is homed on:
	// the owner of the line's first element. Operand arrays are
	// distributed row-wise by the same owner labels that attribute the
	// stream, so X[v] and Y[v] live with vertex v's owner and a row's
	// CSR slices live with that row's owner.
	Home []int32
}

// Trace emits (device, line) pairs in program order, each access tagged
// with the owner of the row that issues it.
func (ot OwnedTrace) Trace(emit func(dev int32, line int64)) {
	var dev int32
	ot.Stream(func(row int32) { dev = ot.Owner[row] }, func(line int64) { emit(dev, line) })
}

// homeBuilder fills a line→device table region by region. Claims must be
// issued in ascending address order; the first element touching a line
// decides its home (later claims of an already-claimed line are ignored),
// which makes the map deterministic and independent of how many elements
// share a line.
type homeBuilder struct {
	sh   uint  // line shift: byte address a lies on line a>>sh
	next int64 // first unclaimed line
	home []int32
}

func newHomeBuilder(end, lineBytes int64) *homeBuilder {
	sh := lineShift(lineBytes)
	return &homeBuilder{sh: sh, home: make([]int32, end>>sh)}
}

// claim assigns dev to the not-yet-claimed lines covering the byte range
// [addr, addr+bytes).
func (h *homeBuilder) claim(addr, bytes int64, dev int32) {
	if bytes <= 0 {
		return
	}
	lo := addr >> h.sh
	hi := (addr + bytes - 1) >> h.sh
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

// claimRows homes an array of rowBytes-byte rows at base: row r on
// owner[r].
func (h *homeBuilder) claimRows(base, rowBytes int64, owner []int32) {
	for r, dev := range owner {
		h.claim(base+int64(r)*rowBytes, rowBytes, dev)
	}
}

// claimCSR homes one CSR matrix's arrays row-wise: row offset entry r and
// row r's column and value slices on owner[r], the closing offset entry on
// the last row's owner. off holds the matrix's row offsets.
func claimCSR[T int32 | int64](h *homeBuilder, rowOff, col, val int64, off []T, owner []int32) {
	n := int64(len(owner))
	h.claimRows(rowOff, ElemBytes, owner)
	if n > 0 {
		h.claim(rowOff+n*ElemBytes, ElemBytes, owner[n-1])
	}
	for _, base := range []int64{col, val} {
		for r := int64(0); r < n; r++ {
			lo, hi := int64(off[r]), int64(off[r+1])
			h.claim(base+lo*ElemBytes, (hi-lo)*ElemBytes, owner[r])
		}
	}
}

// csrHome is the home map of the SpMV (k = 1) and SpMM layouts: Y (dense
// C) and X (dense B) rows and the matrix's CSR arrays live with their
// row's owner.
func csrHome(m *sparse.CSR, k int64, owner []int32, lineBytes int64) []int32 {
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), k, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	h.claimRows(l.Y, k*ElemBytes, owner)
	claimCSR(h, l.RowOff, l.Col, l.Val, m.RowOffsets, owner)
	h.claimRows(l.X, k*ElemBytes, owner)
	return h.home
}

// checkOwner validates an owner vector against the expected vertex count.
func checkOwner(owner []int32, n int32, kernel string) {
	if len(owner) != int(n) {
		panic(fmt.Sprintf("trace: %s with %d owner labels for %d rows", kernel, len(owner), n))
	}
}

// SpMVCSROwned returns SpMVCSR's stream read through owner: row r's work
// runs on owner[r]. Y[r], the row-offset entry, and row r's coords/values
// slices are homed on owner[r]; X[v] on owner[v]. owner must hold one
// device label per row.
func SpMVCSROwned(m *sparse.CSR, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, m.NumRows, "SpMVCSROwned")
	return OwnedTrace{Stream: spmvCSR(m, lineBytes), Owner: owner, Home: csrHome(m, 1, owner, lineBytes)}
}

// SpMVCOOOwned returns SpMVCOO's stream read through owner: nonzero k's
// accesses run on owner[RowIdx[k]]. The triplet arrays are homed per entry
// with the entry's row owner; X and Y per vertex. owner must hold one
// device label per row.
func SpMVCOOOwned(c *sparse.COO, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, c.NumRows, "SpMVCOOOwned")
	l := NewLayoutCOO(int64(c.NumRows), int64(c.NNZ()), lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	h.claimRows(l.Y, ElemBytes, owner)
	for _, base := range []int64{l.RowOff, l.Col, l.Val} {
		for k, r := range c.RowIdx {
			h.claim(base+int64(k)*ElemBytes, ElemBytes, owner[r])
		}
	}
	h.claimRows(l.X, ElemBytes, owner)
	return OwnedTrace{Stream: spmvCOO(c, lineBytes), Owner: owner, Home: h.home}
}

// SpMMCSROwned returns SpMMCSR's stream read through owner: row r's work
// runs on owner[r]. The dense C and B rows are homed with their matrix
// row's owner. owner must hold one device label per row.
func SpMMCSROwned(m *sparse.CSR, k int64, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, m.NumRows, "SpMMCSROwned")
	return OwnedTrace{Stream: spmmCSR(m, k, lineBytes), Owner: owner, Home: csrHome(m, k, owner, lineBytes)}
}

// SpGEMMOwned returns SpGEMM's row-wise stream of C = A·B read through
// owner: A row r's work, including its B-row dereferences and its C row,
// runs on owner[r]. A's and C's row slices are homed with owner[row]; B's
// row-offset entry and row slices with owner[k] of the B row they store,
// so a cross-device A-nonzero turns its B-row fetch into inter-device
// traffic exactly as a partitioned SpGEMM would. Requires a.NumRows ==
// b.NumRows (the square C = A·A products the experiments run); owner
// holds one label per row.
func SpGEMMOwned(a, b *sparse.CSR, cRowNNZ []int32, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, a.NumRows, "SpGEMMOwned")
	if a.NumRows != b.NumRows {
		panic(fmt.Sprintf("trace: SpGEMMOwned with %d A rows but %d B rows", a.NumRows, b.NumRows))
	}
	l, cOff := spgemmLayout(a, b, cRowNNZ, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	claimCSR(h, l.ARowOff, l.ACol, l.AVal, a.RowOffsets, owner)
	claimCSR(h, l.BRowOff, l.BCol, l.BVal, b.RowOffsets, owner)
	claimCSR(h, l.CRowOff, l.CCol, l.CVal, cOff, owner)
	return OwnedTrace{Stream: spgemmStream(a, b, l, cOff, nil), Owner: owner, Home: h.home}
}
