package trace

import (
	"math/rand"
	"testing"

	"repro/internal/community"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

func spgemmTestMatrix(t *testing.T, n int32, deg int) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	coo := sparse.NewCOO(n, n, int(n)*deg)
	for r := int32(0); r < n; r++ {
		for d := 0; d < deg; d++ {
			coo.AddSym(r, rng.Int31n(n), 1)
		}
	}
	return coo.ToCSR()
}

// TestSpGEMMLayoutDisjoint checks the nine operand arrays get
// non-overlapping line-aligned extents in declaration order.
func TestSpGEMMLayoutDisjoint(t *testing.T) {
	l := NewSpGEMMLayout(100, 700, 90, 650, 4321, 128)
	bases := []int64{l.ARowOff, l.ACol, l.AVal, l.BRowOff, l.BCol, l.BVal, l.CRowOff, l.CCol, l.CVal, l.End}
	for i := 1; i < len(bases); i++ {
		if bases[i] <= bases[i-1] {
			t.Fatalf("layout bases not strictly increasing at %d: %v", i, bases)
		}
		if bases[i]%128 != 0 {
			t.Fatalf("base %d = %d not line aligned", i, bases[i])
		}
	}
}

// TestSpGEMMClusterReducesAccesses pins the point of cluster-wise
// execution at the trace level: tiling the outer loop can only remove
// B-row reloads, so the cluster stream is never longer than the row-wise
// stream, and on a community-ordered matrix it must be strictly shorter.
func TestSpGEMMClusterReducesAccesses(t *testing.T) {
	m := spgemmTestMatrix(t, 600, 5)
	info, err := kernels.SpGEMMSymbolic(m, m)
	if err != nil {
		t.Fatal(err)
	}
	const line = 128
	row := collect(SpGEMM(m, m, info.RowNNZ, line))
	cluster := collect(SpGEMMCluster(m, m, info.RowNNZ, nil, line))
	if len(cluster) > len(row) {
		t.Fatalf("cluster-wise trace has %d accesses, row-wise only %d", len(cluster), len(row))
	}
	if len(cluster) == len(row) {
		t.Fatalf("cluster-wise trace captured no B-row reuse (%d accesses)", len(row))
	}
	// One-row tiles are exactly the row-wise schedule.
	singles := make([]community.Shard, m.NumRows)
	for i := range singles {
		singles[i] = community.Shard{Lo: int32(i), Hi: int32(i) + 1}
	}
	perRow := collect(SpGEMMCluster(m, m, info.RowNNZ, singles, line))
	if len(perRow) != len(row) {
		t.Fatalf("singleton tiles emit %d accesses, row-wise %d", len(perRow), len(row))
	}
	for i := range row {
		if perRow[i] != row[i] {
			t.Fatalf("singleton-tile stream diverges from row-wise at %d", i)
		}
	}
}

// TestSpGEMMTraceDeterministic checks two generations emit identical
// streams — the property every cache-simulation cache key relies on.
func TestSpGEMMTraceDeterministic(t *testing.T) {
	m := spgemmTestMatrix(t, 300, 4)
	info, err := kernels.SpGEMMSymbolic(m, m)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]func(func(int64)){
		"row":     SpGEMM(m, m, info.RowNNZ, 128),
		"cluster": SpGEMMCluster(m, m, info.RowNNZ, nil, 128),
	} {
		a, b := collect(tr), collect(tr)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: streams diverge at %d", name, i)
			}
		}
	}
}

// TestSpGEMMTraceRowSizeMismatch pins the defensive panic on a C row-size
// slice that does not match the operand.
func TestSpGEMMTraceRowSizeMismatch(t *testing.T) {
	m := spgemmTestMatrix(t, 10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched cRowNNZ accepted")
		}
	}()
	SpGEMM(m, m, make([]int32, 3), 128)
}
