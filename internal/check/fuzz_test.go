package check

import (
	"encoding/binary"
	"testing"

	"repro/internal/sparse"
)

// buildFuzzCSR decodes an arbitrary byte string into a CSR-shaped struct
// without sanitizing it: the whole point is to hand both validators matrices
// that may violate any invariant.
func buildFuzzCSR(data []byte) *sparse.CSR {
	next := func() int32 {
		if len(data) == 0 {
			return 0
		}
		if len(data) < 4 {
			v := int32(int8(data[0]))
			data = nil
			return v
		}
		v := int32(binary.LittleEndian.Uint32(data[:4]))
		data = data[4:]
		return v
	}
	m := &sparse.CSR{
		NumRows: next() % 16,
		NumCols: next() % 16,
	}
	nOff := int(next()%24) + 1
	for i := 0; i < nOff; i++ {
		m.RowOffsets = append(m.RowOffsets, next()%32)
	}
	nCol := int(next() % 32)
	for i := 0; i < nCol; i++ {
		m.ColIndices = append(m.ColIndices, next()%20)
		m.Values = append(m.Values, float32(next()))
	}
	return m
}

// FuzzValidCSR is a differential fuzz target: check.ValidCSR and
// sparse.CSR.Validate are independent implementations of the same contract,
// so they must agree on every input — and neither may panic. buildFuzzCSR
// always fills Values beside ColIndices, because the two differ on one
// input by design: sparse.Validate accepts a pattern (nil Values), which
// the kernels' contract that ValidCSR states does not.
func FuzzValidCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	// Regression seed: a locally monotone offset prefix pointing past nnz
	// used to make sparse.Validate slice out of bounds.
	seed := make([]byte, 0, 64)
	add := func(v int32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		seed = append(seed, b[:]...)
	}
	add(3) // rows
	add(3) // cols
	add(4) // offsets count
	add(0) // offsets...
	add(5)
	add(2)
	add(2)
	add(2) // col count
	add(0)
	add(1)
	add(1)
	add(1)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := buildFuzzCSR(data)
		checkErr := ValidCSR(m)
		sparseErr := m.Validate()
		if (checkErr == nil) != (sparseErr == nil) {
			t.Fatalf("validators disagree: check=%v sparse=%v on %+v", checkErr, sparseErr, m)
		}
	})
}

// FuzzValidPermutation differentially fuzzes the two permutation validators.
func FuzzValidPermutation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		p := make(sparse.Permutation, len(data))
		for i, b := range data {
			p[i] = int32(int8(b))
		}
		checkErr := ValidPermutation(p)
		sparseErr := p.Validate()
		if (checkErr == nil) != (sparseErr == nil) {
			t.Fatalf("validators disagree: check=%v sparse=%v on %v", checkErr, sparseErr, p)
		}
	})
}
