// Package check centralizes the machine-checked invariants the rest of the
// repository relies on: permutations must be bijections, CSR matrices must
// satisfy the structural contract every kernel assumes, and int→int32 index
// downcasts must not overflow near 2³¹ nonzeros.
//
// The Valid* functions are deliberately independent reimplementations of the
// Validate methods in internal/sparse; the FuzzValidCSR differential fuzz
// target keeps the two in agreement, so a bug has to be introduced twice to
// go unnoticed.
//
// The Assert* functions compile to no-ops by default and to panicking
// validators under the `check` build tag (go test -tags check ./...). They
// are wired at the boundaries of internal/core, internal/reorder,
// internal/kernels, and internal/cachesim; the permreturn analyzer in
// tools/analyzers enforces that every exported permutation-returning
// function keeps its assertion.
package check

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ValidPermutation returns an error unless p is a bijection on [0, len(p)).
func ValidPermutation(p sparse.Permutation) error {
	n := len(p)
	// from[v] records 1 + the position that claimed value v.
	from := make([]int32, n)
	for i, v := range p {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("check: permutation entry %d = %d outside [0,%d)", i, v, n)
		}
		if prior := from[v]; prior != 0 {
			return fmt.Errorf("check: permutation positions %d and %d both map to %d", prior-1, i, v)
		}
		from[v] = int32(i) + 1
	}
	return nil
}

// ValidCSR returns an error unless m satisfies the CSR structural contract:
// consistent slice lengths, monotone row offsets starting at 0, and
// in-bounds, strictly increasing column indices within every row. It is
// the kernels' contract, so it rejects a sparse pattern (nil Values with
// stored nonzeros): every kernel reads the values.
func ValidCSR(m *sparse.CSR) error {
	if m == nil {
		return fmt.Errorf("check: nil CSR")
	}
	if m.NumRows < 0 || m.NumCols < 0 {
		return fmt.Errorf("check: negative CSR dimensions %dx%d", m.NumRows, m.NumCols)
	}
	if len(m.RowOffsets) != int(m.NumRows)+1 {
		return fmt.Errorf("check: RowOffsets has %d entries for %d rows", len(m.RowOffsets), m.NumRows)
	}
	if m.RowOffsets[0] != 0 {
		return fmt.Errorf("check: RowOffsets begins at %d, want 0", m.RowOffsets[0])
	}
	if len(m.Values) != len(m.ColIndices) {
		return fmt.Errorf("check: %d values for %d column indices", len(m.Values), len(m.ColIndices))
	}
	nnz := len(m.ColIndices)
	if int(m.RowOffsets[m.NumRows]) != nnz {
		return fmt.Errorf("check: RowOffsets ends at %d, want nnz %d", m.RowOffsets[m.NumRows], nnz)
	}
	for r := int32(0); r < m.NumRows; r++ {
		lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
		if lo > hi {
			return fmt.Errorf("check: RowOffsets not monotone at row %d (%d > %d)", r, lo, hi)
		}
		if lo < 0 || int(hi) > nnz {
			return fmt.Errorf("check: row %d spans [%d,%d) outside [0,%d)", r, lo, hi, nnz)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			c := m.ColIndices[k]
			if c < 0 || c >= m.NumCols {
				return fmt.Errorf("check: column %d out of range [0,%d) in row %d", c, m.NumCols, r)
			}
			if c <= prev {
				return fmt.Errorf("check: row %d not strictly sorted at offset %d (%d after %d)", r, k, c, prev)
			}
			prev = c
		}
	}
	return nil
}

// FitsInt32 reports whether v is representable as an int32.
func FitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// SafeInt32 converts v to int32, panicking instead of silently wrapping when
// the value does not fit. Index downcasts on nnz-sized quantities must go
// through this (or an equivalent guard); the uncheckedcast analyzer flags
// raw int32(len(...)) conversions.
func SafeInt32(v int) int32 {
	if !FitsInt32(v) {
		panic(fmt.Sprintf("check: value %d overflows int32", v))
	}
	return int32(v)
}

// Perm returns p unchanged after asserting (under the check build tag) that
// it is a valid permutation. It exists so permutation-producing return
// statements can stay single-expression: return check.Perm(...).
func Perm(p sparse.Permutation) sparse.Permutation {
	AssertPermutation(p)
	return p
}

// CSR returns m unchanged after asserting (under the check build tag) that
// it satisfies the CSR structural contract.
func CSR(m *sparse.CSR) *sparse.CSR {
	AssertCSR(m)
	return m
}
