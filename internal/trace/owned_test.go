package trace

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

// collectOwned drains an owned trace into parallel device/line slices.
func collectOwned(ot OwnedTrace) (devs []int32, lines []int64) {
	ot.Trace(func(dev int32, line int64) {
		devs = append(devs, dev)
		lines = append(lines, line)
	})
	return devs, lines
}

// blockOwner is a test-local contiguous equal split of n rows over k devices.
func blockOwner(n int32, k int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(int64(i) * int64(k) / int64(n))
	}
	return out
}

// ownedCases builds every owned generator over one matrix.
func ownedCases(t *testing.T, m *sparse.CSR, owner []int32, line int64) map[string]struct{ owned OwnedTrace } {
	t.Helper()
	coo := sparse.CSRToCOO(m)
	info, err := kernels.SpGEMMSymbolic(m, m)
	if err != nil {
		t.Fatalf("symbolic: %v", err)
	}
	return map[string]struct{ owned OwnedTrace }{
		"spmv-csr": {SpMVCSROwned(m, owner, line)},
		"spmv-coo": {SpMVCOOOwned(coo, owner, line)},
		"spmm-4":   {SpMMCSROwned(m, 4, owner, line)},
		"spmm-97":  {SpMMCSROwned(m, 97, owner, line)},
		"spgemm":   {SpGEMMOwned(m, m, info.RowNNZ, owner, line)},
	}
}

// TestOwnedHomeMap checks the home map covers the whole footprint, stays in
// device range, and homes every emitted line.
func TestOwnedHomeMap(t *testing.T) {
	const line = 128
	m := gen.PlantedPartition{Nodes: 300, Communities: 10, AvgDegree: 8, Mu: 0.3}.Generate(3)
	const k = 4
	owner := blockOwner(m.NumRows, k)
	for name, c := range ownedCases(t, m, owner, line) {
		if len(c.owned.Home) == 0 {
			t.Fatalf("%s: empty home map", name)
		}
		for ln, dev := range c.owned.Home {
			if dev < 0 || dev >= k {
				t.Fatalf("%s: line %d homed on device %d", name, ln, dev)
			}
		}
		_, lines := collectOwned(c.owned)
		for i, ln := range lines {
			if ln < 0 || ln >= int64(len(c.owned.Home)) {
				t.Fatalf("%s: access %d to line %d outside home map of %d lines", name, i, ln, len(c.owned.Home))
			}
		}
	}
}

// TestOwnedRowAttribution spot-checks the attribution rule on a hand-built
// matrix: every access issued while processing row r is tagged owner[r].
func TestOwnedRowAttribution(t *testing.T) {
	// 4 rows, 2 devices: rows 0-1 on device 0, rows 2-3 on device 1.
	// Row 2 reads X[0], a remote dereference executed by device 1.
	coo := sparse.NewCOO(4, 4, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(2, 0, 1)
	coo.Add(3, 3, 1)
	m := coo.ToCSR()
	owner := []int32{0, 0, 1, 1}
	ot := SpMVCSROwned(m, owner, 128)
	devs, _ := collectOwned(ot)
	// The trace is row-major, so device tags must be non-decreasing for a
	// block owner: once row 2 starts, everything is device 1.
	for i := 1; i < len(devs); i++ {
		if devs[i] < devs[i-1] {
			t.Fatalf("device tags not row-monotonic: %v", devs)
		}
	}
	if devs[0] != 0 || devs[len(devs)-1] != 1 {
		t.Fatalf("expected device 0 first and device 1 last, got %v", devs)
	}
	// X is homed per vertex: X[0] with device 0, X[3] with device 1.
	l := NewLayout(4, 4, 1, 128)
	if got := ot.Home[l.X/l.LineBytes]; got != 0 {
		t.Fatalf("X[0] line homed on device %d, want 0", got)
	}
	if got := ot.Home[l.Y/l.LineBytes]; got != 0 {
		t.Fatalf("Y[0] line homed on device %d, want 0", got)
	}
}

// TestOwnedValidation pins the panics on mismatched owner vectors and
// rectangular SpGEMM operands.
func TestOwnedValidation(t *testing.T) {
	m := gen.ErdosRenyi{Nodes: 16, AvgDegree: 3}.Generate(4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("short owner", func() { SpMVCSROwned(m, make([]int32, 3), 128) })
	mustPanic("spmm owner", func() { SpMMCSROwned(m, 4, nil, 128) })
	info, err := kernels.SpGEMMSymbolic(m, m)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("bad cRowNNZ", func() { SpGEMMOwned(m, m, info.RowNNZ[:4], make([]int32, 16), 128) })
}
