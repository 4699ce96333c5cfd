// Package sparse provides compressed sparse matrix representations (CSR and
// COO), a permutation type, symmetric reordering, structural statistics, and
// MatrixMarket I/O. It is the substrate every other package in this
// repository builds on.
//
// Indices are int32 and values are float32 throughout. This matches the
// 4-byte elements assumed by the paper's compulsory-traffic model
// (Section IV-B): rowOffsets, coords, and values all move 4 bytes per entry.
package sparse

import (
	"errors"
	"fmt"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
// RowOffsets has NumRows+1 entries; the column indices and values of row r
// live in ColIndices[RowOffsets[r]:RowOffsets[r+1]] (and the parallel slice
// of Values). Column indices within a row are kept sorted and unique by all
// constructors in this package.
//
// A CSR with nil Values is a pattern: the nonzero structure alone, for
// consumers that read no value, such as the trace generators and the
// structural statistics. Pattern makes one as a view of a valued matrix,
// and Symmetrize always returns one; PermuteSymmetric, Transpose,
// CSRToCOO and Row carry a pattern through, and Validate accepts one.
// Operations that read or copy values (the kernels, Equal, Clone,
// MaskRowsCols, the writers) need a valued matrix.
type CSR struct {
	NumRows    int32     // row count; RowOffsets has NumRows+1 entries
	NumCols    int32     // column count; every ColIndices entry is < NumCols
	RowOffsets []int32   // row r's entries span [RowOffsets[r], RowOffsets[r+1])
	ColIndices []int32   // column index per nonzero, sorted and unique within a row
	Values     []float32 // value per nonzero, parallel to ColIndices; nil for a pattern
}

// Pattern returns m's pattern: a view sharing m's RowOffsets and
// ColIndices, with nil Values. It copies nothing, so the caller must not
// modify either slice.
func (m *CSR) Pattern() *CSR {
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowOffsets: m.RowOffsets, ColIndices: m.ColIndices}
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIndices) }

// IsSquare reports whether the matrix has as many rows as columns.
func (m *CSR) IsSquare() bool { return m.NumRows == m.NumCols }

// Row returns the column indices and values of row r as sub-slices of the
// matrix storage; the values are nil for a pattern. The caller must not
// modify them.
func (m *CSR) Row(r int32) ([]int32, []float32) {
	lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
	// Clamping to len(Values) yields a pattern's nil values without a
	// branch: the kernels inline Row into their inner loops, and a
	// branch here slowed BenchmarkSpGEMM/merge by ~15% (2-CPU x86-64).
	vhi := min(int(hi), len(m.Values))
	return m.ColIndices[lo:hi], m.Values[min(int(lo), vhi):vhi]
}

// RowLen returns the number of nonzeros in row r.
func (m *CSR) RowLen(r int32) int32 { return m.RowOffsets[r+1] - m.RowOffsets[r] }

// Validate checks the structural invariants of the CSR format: offset
// monotonicity, index bounds, sorted and duplicate-free rows, and slice
// length consistency (a pattern has no Values to check). It returns a
// descriptive error for the first violation found.
func (m *CSR) Validate() error {
	if m.NumRows < 0 || m.NumCols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.NumRows, m.NumCols)
	}
	if len(m.RowOffsets) != int(m.NumRows)+1 {
		return fmt.Errorf("sparse: RowOffsets has %d entries, want %d", len(m.RowOffsets), m.NumRows+1)
	}
	if m.RowOffsets[0] != 0 {
		return fmt.Errorf("sparse: RowOffsets[0] = %d, want 0", m.RowOffsets[0])
	}
	if m.Values != nil && len(m.Values) != len(m.ColIndices) {
		return fmt.Errorf("sparse: %d values for %d column indices", len(m.Values), len(m.ColIndices))
	}
	if int(m.RowOffsets[m.NumRows]) != len(m.ColIndices) {
		return fmt.Errorf("sparse: RowOffsets[last] = %d, want nnz = %d", m.RowOffsets[m.NumRows], len(m.ColIndices))
	}
	for r := int32(0); r < m.NumRows; r++ {
		if m.RowOffsets[r] > m.RowOffsets[r+1] {
			return fmt.Errorf("sparse: RowOffsets not monotone at row %d", r)
		}
		// Bounds must hold before Row may slice: a locally monotone prefix
		// can still point past nnz when a later offset decreases.
		if int(m.RowOffsets[r+1]) > len(m.ColIndices) {
			return fmt.Errorf("sparse: RowOffsets[%d] = %d exceeds nnz %d", r+1, m.RowOffsets[r+1], len(m.ColIndices))
		}
		cols, _ := m.Row(r)
		for k, c := range cols {
			if c < 0 || c >= m.NumCols {
				return fmt.Errorf("sparse: column index %d out of range in row %d", c, r)
			}
			if k > 0 && cols[k-1] >= c {
				return fmt.Errorf("sparse: row %d not strictly sorted at position %d", r, k)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		NumRows:    m.NumRows,
		NumCols:    m.NumCols,
		RowOffsets: make([]int32, len(m.RowOffsets)),
		ColIndices: make([]int32, len(m.ColIndices)),
		Values:     make([]float32, len(m.Values)),
	}
	copy(c.RowOffsets, m.RowOffsets)
	copy(c.ColIndices, m.ColIndices)
	copy(c.Values, m.Values)
	return c
}

// Equal reports whether the two matrices have identical shape, pattern, and
// values.
func (m *CSR) Equal(o *CSR) bool {
	if !m.EqualPattern(o) {
		return false
	}
	for i, v := range m.Values {
		if o.Values[i] != v {
			return false
		}
	}
	return true
}

// EqualPattern reports whether the two matrices have identical shape and
// nonzero structure, ignoring values.
func (m *CSR) EqualPattern(o *CSR) bool {
	if m.NumRows != o.NumRows || m.NumCols != o.NumCols || len(m.ColIndices) != len(o.ColIndices) {
		return false
	}
	for i, v := range m.RowOffsets {
		if o.RowOffsets[i] != v {
			return false
		}
	}
	for i, v := range m.ColIndices {
		if o.ColIndices[i] != v {
			return false
		}
	}
	return true
}

// Transpose returns the transpose of the matrix as a new CSR, a pattern
// for a pattern. Rows of the result are sorted because the counting
// transpose visits source rows in order.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		NumRows:    m.NumCols,
		NumCols:    m.NumRows,
		RowOffsets: make([]int32, int(m.NumCols)+1),
		ColIndices: make([]int32, len(m.ColIndices)),
	}
	if m.Values != nil {
		t.Values = make([]float32, len(m.Values))
	}
	for _, c := range m.ColIndices {
		t.RowOffsets[c+1]++
	}
	for i := int32(0); i < m.NumCols; i++ {
		t.RowOffsets[i+1] += t.RowOffsets[i]
	}
	cursor := make([]int32, m.NumCols)
	copy(cursor, t.RowOffsets[:m.NumCols])
	for r := int32(0); r < m.NumRows; r++ {
		lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
		for k := lo; k < hi; k++ {
			c := m.ColIndices[k]
			dst := cursor[c]
			cursor[c]++
			t.ColIndices[dst] = r
			if t.Values != nil {
				t.Values[dst] = m.Values[k]
			}
		}
	}
	return t
}

// IsSymmetric reports whether the matrix pattern and values are symmetric.
// It requires a square matrix and runs in O(nnz) time and space.
func (m *CSR) IsSymmetric() bool {
	if !m.IsSquare() {
		return false
	}
	return m.Equal(m.Transpose())
}

// IsPatternSymmetric reports whether the nonzero pattern is symmetric,
// ignoring values.
func (m *CSR) IsPatternSymmetric() bool {
	if !m.IsSquare() {
		return false
	}
	return m.EqualPattern(m.Transpose())
}

// Symmetrize returns the pattern of A ∪ Aᵀ as a new matrix: the union of
// the pattern and its transpose, with nil Values. Matrix reordering
// techniques that perform community detection treat the matrix as an
// undirected graph, which is exactly the symmetrized pattern, and none of
// them reads a value.
func (m *CSR) Symmetrize() *CSR {
	if !m.IsSquare() {
		panic("sparse: Symmetrize requires a square matrix")
	}
	t := m.Pattern().Transpose()
	out := &CSR{
		NumRows:    m.NumRows,
		NumCols:    m.NumCols,
		RowOffsets: make([]int32, int(m.NumRows)+1),
		ColIndices: make([]int32, 0, len(m.ColIndices)+len(t.ColIndices)),
	}
	// Merge the sorted rows of m and t.
	for r := int32(0); r < m.NumRows; r++ {
		ac, _ := m.Row(r)
		bc, _ := t.Row(r)
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			if j >= len(bc) || (i < len(ac) && ac[i] <= bc[j]) {
				if j < len(bc) && ac[i] == bc[j] {
					j++
				}
				out.ColIndices = append(out.ColIndices, ac[i])
				i++
				continue
			}
			out.ColIndices = append(out.ColIndices, bc[j])
			j++
		}
		out.RowOffsets[r+1] = mustInt32(len(out.ColIndices))
	}
	return out
}

// PermuteSymmetric applies the symmetric permutation P·A·Pᵀ: entry (i, j)
// of the input appears at (p[i], p[j]) in the result. The permutation maps
// old IDs to new IDs, which is the convention used by every reordering
// technique in this repository.
//
// Two counting-sort passes place the entries in O(n + nnz): the first
// buckets them by new column, visiting new rows in order, and the second
// scatters the buckets back to their rows, visiting new columns in order,
// so every output row comes out sorted. A row holds no duplicate column,
// so the result is the one a per-row sort would give. Scratch is 8 bytes
// per nonzero and 8 per row. A pattern permutes to a pattern: both value
// scatters are skipped, and scratch falls to 4 bytes per nonzero.
func (m *CSR) PermuteSymmetric(p Permutation) *CSR {
	if !m.IsSquare() {
		panic("sparse: PermuteSymmetric requires a square matrix")
	}
	if len(p) != int(m.NumRows) {
		panic(fmt.Sprintf("sparse: permutation length %d for %d rows", len(p), m.NumRows))
	}
	n := m.NumRows
	inv := p.Inverse()
	out := &CSR{
		NumRows:    n,
		NumCols:    n,
		RowOffsets: make([]int32, int(n)+1),
		ColIndices: make([]int32, len(m.ColIndices)),
	}
	// vals buckets the values beside rows; both stay nil for a pattern.
	var vals []float32
	if m.Values != nil {
		out.Values = make([]float32, len(m.Values))
		vals = make([]float32, len(m.Values))
	}
	// New row r holds old row inv[r]. RowOffsets[r+1] starts as row r's
	// first slot and serves as its cursor in pass 2, which leaves it at
	// the row's end.
	for r := int32(1); r < n; r++ {
		out.RowOffsets[r+1] = out.RowOffsets[r] + m.RowLen(inv[r-1])
	}
	// colPos[c+1] likewise starts as new column c's first bucket slot and
	// is its cursor in pass 1, after which bucket c spans [colPos[c],
	// colPos[c+1]).
	colPos := make([]int32, int(n)+2)
	for _, c := range m.ColIndices {
		colPos[p[c]+2]++
	}
	for c := 2; c < len(colPos); c++ {
		colPos[c] += colPos[c-1]
	}
	// Pass 1: each bucket lists its entries' new rows in ascending order.
	rows := make([]int32, len(m.ColIndices))
	for r := int32(0); r < n; r++ {
		for k := m.RowOffsets[inv[r]]; k < m.RowOffsets[inv[r]+1]; k++ {
			cur := &colPos[p[m.ColIndices[k]]+1]
			rows[*cur] = r
			if vals != nil {
				vals[*cur] = m.Values[k]
			}
			*cur++
		}
	}
	// Pass 2: every row receives its columns in ascending order.
	for c := int32(0); c < n; c++ {
		for k := colPos[c]; k < colPos[c+1]; k++ {
			cur := &out.RowOffsets[rows[k]+1]
			out.ColIndices[*cur] = c
			if vals != nil {
				out.Values[*cur] = vals[k]
			}
			*cur++
		}
	}
	return out
}

// ErrNotSquare is returned by operations that require square matrices.
var ErrNotSquare = errors.New("sparse: matrix is not square")
