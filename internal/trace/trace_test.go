package trace

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/gen"
	"repro/internal/sparse"
)

func collect(t func(emit func(int64))) []int64 {
	var out []int64
	t(func(l int64) { out = append(out, l) })
	return out
}

func distinct(lines []int64) map[int64]bool {
	d := map[int64]bool{}
	for _, l := range lines {
		d[l] = true
	}
	return d
}

// TestLineSizeMustBePowerOfTwo pins that a generator refuses a line size
// it cannot shift by, at construction rather than mid-stream.
func TestLineSizeMustBePowerOfTwo(t *testing.T) {
	m := gen.ErdosRenyi{Nodes: 64, AvgDegree: 4}.Generate(1)
	for _, line := range []int64{96, 0, -128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpMVCSR accepted line size %d", line)
				}
			}()
			SpMVCSR(m, line)
		}()
	}
}

func TestLayoutNonOverlapping(t *testing.T) {
	l := NewLayout(1000, 5000, 1, 128)
	bounds := []int64{l.Y, l.RowOff, l.Col, l.Val, l.X, l.End}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("layout regions not strictly increasing: %+v", l)
		}
		if bounds[i]%128 != 0 {
			t.Fatalf("region base %d not line aligned", bounds[i])
		}
	}
	// Region sizes must fit their arrays.
	if l.RowOff-l.Y < 1000*ElemBytes {
		t.Fatal("Y region too small")
	}
	if l.Col-l.RowOff < 1001*ElemBytes {
		t.Fatal("rowOffsets region too small")
	}
	if l.X-l.Val < 5000*ElemBytes {
		t.Fatal("values region too small")
	}
}

func TestLayoutDenseK(t *testing.T) {
	l := NewLayout(100, 500, 256, 128)
	if l.RowOff-l.Y < 100*256*ElemBytes {
		t.Fatal("dense C region too small for k=256")
	}
	if l.End-l.X < 100*256*ElemBytes {
		t.Fatal("dense B region too small for k=256")
	}
}

func TestSpMVCSRTraceTouchesAllOperands(t *testing.T) {
	m := gen.ErdosRenyi{Nodes: 300, AvgDegree: 6}.Generate(1)
	const line = 128
	lines := collect(SpMVCSR(m, line))
	if len(lines) == 0 {
		t.Fatal("empty trace")
	}
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, line)
	d := distinct(lines)
	// Every line of the streaming arrays must appear exactly as many lines
	// as the arrays span.
	countIn := func(lo, hi int64) int {
		n := 0
		for ln := range d {
			if ln >= lo/line && ln < (hi+line-1)/line {
				n++
			}
		}
		return n
	}
	wantRowOff := int((int64(m.NumRows+1)*ElemBytes + line - 1) / line)
	if got := countIn(l.RowOff, l.RowOff+int64(m.NumRows+1)*ElemBytes); got != wantRowOff {
		t.Fatalf("rowOffsets lines touched = %d, want %d", got, wantRowOff)
	}
	wantCol := int((int64(m.NNZ())*ElemBytes + line - 1) / line)
	if got := countIn(l.Col, l.Col+int64(m.NNZ())*ElemBytes); got != wantCol {
		t.Fatalf("coords lines touched = %d, want %d", got, wantCol)
	}
	// X lines touched = lines containing at least one referenced column.
	xLines := map[int64]bool{}
	for _, c := range m.ColIndices {
		xLines[(l.X+int64(c)*ElemBytes)/line] = true
	}
	if got := countIn(l.X, l.X+int64(m.NumCols)*ElemBytes); got != len(xLines) {
		t.Fatalf("X lines touched = %d, want %d", got, len(xLines))
	}
}

func TestSpMVCSRTraceIrregularAccessCount(t *testing.T) {
	// The trace must contain exactly one X access per nonzero (the
	// irregular dereference of Algorithm 1 line 6).
	m := gen.ErdosRenyi{Nodes: 200, AvgDegree: 5}.Generate(2)
	const line = 128
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, line)
	xLo, xHi := l.X/line, l.End/line
	var xAccesses int
	for _, ln := range collect(SpMVCSR(m, line)) {
		if ln >= xLo && ln < xHi {
			xAccesses++
		}
	}
	if xAccesses != m.NNZ() {
		t.Fatalf("X accesses = %d, want one per nonzero = %d", xAccesses, m.NNZ())
	}
}

func TestSpMVTraceCompulsoryMatchesFootprint(t *testing.T) {
	// Running the trace through an infinite cache yields exactly the
	// distinct-line footprint as compulsory misses.
	m := gen.PlantedPartition{Nodes: 400, Communities: 8, AvgDegree: 6, Mu: 0.2}.Generate(3)
	lines := collect(SpMVCSR(m, 128))
	cfg := cachesim.Config{CapacityBytes: 1 << 26, LineBytes: 128, Ways: 16}
	s := cachesim.SimulateLRU(cfg, SpMVCSR(m, 128))
	if s.Misses != int64(len(distinct(lines))) {
		t.Fatalf("infinite-cache misses %d != distinct lines %d", s.Misses, len(distinct(lines)))
	}
}

func TestSpMVCOOTrace(t *testing.T) {
	m := gen.ErdosRenyi{Nodes: 200, AvgDegree: 5}.Generate(4)
	coo := sparse.CSRToCOO(m)
	lines := collect(SpMVCOO(coo, 128))
	if len(lines) == 0 {
		t.Fatal("empty COO trace")
	}
	// COO streams three triplet arrays instead of one offsets array, so
	// its distinct-line footprint exceeds CSR's for the same matrix.
	csrFootprint := len(distinct(collect(SpMVCSR(m, 128))))
	cooFootprint := len(distinct(lines))
	if cooFootprint <= csrFootprint {
		t.Fatalf("COO footprint %d not larger than CSR %d", cooFootprint, csrFootprint)
	}
}

func TestSpMMTraceScalesWithK(t *testing.T) {
	m := gen.ErdosRenyi{Nodes: 300, AvgDegree: 6}.Generate(5)
	len4 := len(collect(SpMMCSR(m, 4, 128)))
	len256 := len(collect(SpMMCSR(m, 256, 128)))
	if len256 <= len4*4 {
		t.Fatalf("SpMM k=256 trace (%d) should be much longer than k=4 (%d)", len256, len4)
	}
	// k=256 rows span 1024 bytes = 8 lines of 128B; every nonzero must
	// touch 8 or 9 B-lines.
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 256, 128)
	bLo := l.X / 128
	var bAccesses int
	for _, ln := range collect(SpMMCSR(m, 256, 128)) {
		if ln >= bLo && ln < l.End/128 {
			bAccesses++
		}
	}
	if bAccesses != m.NNZ()*8 {
		t.Fatalf("B accesses = %d, want %d (8 lines per nonzero)", bAccesses, m.NNZ()*8)
	}
}

func TestSpMMPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SpMM with k=0 did not panic")
		}
	}()
	m := gen.ErdosRenyi{Nodes: 10, AvgDegree: 2}.Generate(6)
	SpMMCSR(m, 0, 128)
}

func TestStreamCoalescing(t *testing.T) {
	var got []int64
	s := newStream(func(l int64) { got = append(got, l) })
	for _, l := range []int64{5, 5, 5, 6, 6, 5} {
		s.access(l)
	}
	// Each new line is emitted twice (sector-read approximation); repeats
	// of the current line are coalesced away.
	want := []int64{5, 5, 6, 6, 5, 5}
	if len(got) != len(want) {
		t.Fatalf("coalesced = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coalesced = %v, want %v", got, want)
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	m := gen.RMAT{LogNodes: 9, AvgDegree: 6, A: 0.5, B: 0.2, C: 0.2, Symmetric: true}.Generate(7)
	a := collect(SpMVCSR(m, 128))
	b := collect(SpMVCSR(m, 128))
	if len(a) != len(b) {
		t.Fatal("trace length nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at access %d", i)
		}
	}
}

func TestEmptyRowsStillStreamY(t *testing.T) {
	// A matrix with all-empty rows still streams Y and rowOffsets.
	m := &sparse.CSR{NumRows: 100, NumCols: 100, RowOffsets: make([]int32, 101)}
	lines := collect(SpMVCSR(m, 128))
	if len(lines) == 0 {
		t.Fatal("empty matrix trace is empty; Y and rowOffsets must still stream")
	}
}
