package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// COO is a sparse matrix in coordinate (triplet) format. Entries may be in
// any order and may contain duplicates until Compact is called; ToCSR
// compacts implicitly.
type COO struct {
	NumRows int32     // row count
	NumCols int32     // column count
	RowIdx  []int32   // row index per entry
	ColIdx  []int32   // column index per entry, parallel to RowIdx
	Values  []float32 // value per entry; duplicates sum on Compact
}

// NewCOO returns an empty COO matrix of the given shape with capacity for
// nnzHint entries.
func NewCOO(rows, cols int32, nnzHint int) *COO {
	return &COO{
		NumRows: rows,
		NumCols: cols,
		RowIdx:  make([]int32, 0, nnzHint),
		ColIdx:  make([]int32, 0, nnzHint),
		Values:  make([]float32, 0, nnzHint),
	}
}

// NNZ returns the number of stored entries, including any duplicates.
func (c *COO) NNZ() int { return len(c.RowIdx) }

// Add appends entry (r, c) = v.
func (c *COO) Add(r, col int32, v float32) {
	c.RowIdx = append(c.RowIdx, r)
	c.ColIdx = append(c.ColIdx, col)
	c.Values = append(c.Values, v)
}

// AddSym appends both (r, c) = v and (c, r) = v. Diagonal entries are added
// once.
func (c *COO) AddSym(r, col int32, v float32) {
	c.Add(r, col, v)
	if r != col {
		c.Add(col, r, v)
	}
}

// Validate checks that every entry is within the matrix bounds.
func (c *COO) Validate() error {
	if len(c.ColIdx) != len(c.RowIdx) || len(c.Values) != len(c.RowIdx) {
		return fmt.Errorf("sparse: COO slice lengths disagree: %d/%d/%d", len(c.RowIdx), len(c.ColIdx), len(c.Values))
	}
	for k := range c.RowIdx {
		if c.RowIdx[k] < 0 || c.RowIdx[k] >= c.NumRows {
			return fmt.Errorf("sparse: COO row index %d out of range at entry %d", c.RowIdx[k], k)
		}
		if c.ColIdx[k] < 0 || c.ColIdx[k] >= c.NumCols {
			return fmt.Errorf("sparse: COO column index %d out of range at entry %d", c.ColIdx[k], k)
		}
	}
	return nil
}

// Sort orders the entries by (row, column). It does not remove duplicates.
func (c *COO) Sort() {
	idx := make([]int, len(c.RowIdx))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if c.RowIdx[ia] != c.RowIdx[ib] {
			return c.RowIdx[ia] < c.RowIdx[ib]
		}
		return c.ColIdx[ia] < c.ColIdx[ib]
	})
	applyPermutationInt32(c.RowIdx, idx)
	applyPermutationInt32(c.ColIdx, idx)
	applyPermutationFloat32(c.Values, idx)
}

func applyPermutationInt32(s []int32, idx []int) {
	out := make([]int32, len(s))
	for i, j := range idx {
		out[i] = s[j]
	}
	copy(s, out)
}

func applyPermutationFloat32(s []float32, idx []int) {
	out := make([]float32, len(s))
	for i, j := range idx {
		out[i] = s[j]
	}
	copy(s, out)
}

// ToCSR converts the COO matrix to CSR. Duplicate entries are merged by
// summation, as is conventional for triplet assembly. The input is not
// modified.
func (c *COO) ToCSR() *CSR {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	n := int(c.NumRows)
	counts := make([]int32, n+1)
	for _, r := range c.RowIdx {
		counts[r+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	// Bucket entries by row, then sort and merge within each row.
	cursor := make([]int32, n)
	colBuf := make([]int32, len(c.ColIdx))
	valBuf := make([]float32, len(c.Values))
	for k, r := range c.RowIdx {
		dst := counts[r] + cursor[r]
		cursor[r]++
		colBuf[dst] = c.ColIdx[k]
		valBuf[dst] = c.Values[k]
	}
	out := &CSR{
		NumRows:    c.NumRows,
		NumCols:    c.NumCols,
		RowOffsets: make([]int32, n+1),
		ColIndices: make([]int32, 0, len(colBuf)),
		Values:     make([]float32, 0, len(valBuf)),
	}
	type colVal struct {
		c int32
		v float32
	}
	var scratch []colVal
	for r := 0; r < n; r++ {
		lo, hi := counts[r], counts[r+1]
		scratch = scratch[:0]
		for k := lo; k < hi; k++ {
			scratch = append(scratch, colVal{colBuf[k], valBuf[k]})
		}
		// The same pdqsort as sort.Slice, so duplicates keep the order
		// they are summed in below.
		slices.SortFunc(scratch, func(a, b colVal) int { return cmp.Compare(a.c, b.c) })
		for i := 0; i < len(scratch); i++ {
			if n := len(out.ColIndices); n > int(out.RowOffsets[r]) && out.ColIndices[n-1] == scratch[i].c {
				out.Values[n-1] += scratch[i].v // merge duplicate
				continue
			}
			out.ColIndices = append(out.ColIndices, scratch[i].c)
			out.Values = append(out.Values, scratch[i].v)
		}
		out.RowOffsets[r+1] = mustInt32(len(out.ColIndices))
	}
	return out
}

// CSRToCOO converts a CSR matrix to coordinate format with entries in
// row-major order.
func CSRToCOO(m *CSR) *COO {
	out := NewCOO(m.NumRows, m.NumCols, m.NNZ())
	for r := int32(0); r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for k, c := range cols {
			out.Add(r, c, vals[k])
		}
	}
	return out
}
