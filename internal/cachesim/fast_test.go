package cachesim

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// diffCfgs are the geometries the differential tests sweep: power-of-two
// and non-power-of-two set counts, direct-mapped-ish through highly
// associative.
var diffCfgs = []Config{
	{CapacityBytes: 1024, LineBytes: 64, Ways: 2},         // 8 sets
	{CapacityBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2},   // 3 sets (non-pow2)
	{CapacityBytes: 4096, LineBytes: 64, Ways: 4},         // 16 sets
	{CapacityBytes: 64 * 16 * 3, LineBytes: 64, Ways: 16}, // 3 sets, 16 ways
	{CapacityBytes: 128 * 1, LineBytes: 64, Ways: 2},      // 1 set
}

func replay(trace []int64) func(emit func(int64)) {
	return func(emit func(int64)) {
		for _, l := range trace {
			emit(l)
		}
	}
}

func TestFastLRUMatchesReferenceRandom(t *testing.T) {
	f := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		trace := make([]int64, 5000)
		for i := range trace {
			if r.Intn(2) == 0 {
				trace[i] = int64(r.Intn(64)) // hot working set
			} else {
				trace[i] = int64(r.Intn(4000))
			}
		}
		for _, cfg := range diffCfgs {
			ref := SimulateLRUWith(cfg, ImplReference, replay(trace))
			fast := SimulateLRUWith(cfg, ImplFast, replay(trace))
			if ref != fast {
				t.Logf("cfg %+v: reference %+v != fast %+v", cfg, ref, fast)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFastBeladyMatchesReferenceRandom(t *testing.T) {
	f := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		trace := make([]int64, 5000)
		for i := range trace {
			trace[i] = int64(r.Zipf(1000, 0.7))
		}
		for _, cfg := range diffCfgs {
			ref := SimulateBelady(cfg, trace)
			fast := SimulateBeladyTrace(cfg, RecordTraceChunked(replay(trace), int64(len(trace))))
			if ref != fast {
				t.Logf("cfg %+v: reference %+v != fast %+v", cfg, ref, fast)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFastLRUTableGrows(t *testing.T) {
	// Force several line-table growths past the initial capacity.
	cfg := Config{CapacityBytes: 64 * 16 * 64, LineBytes: 64, Ways: 16}
	c, ref := NewFastLRU(cfg), NewLRU(cfg)
	for l := int64(0); l < 20000; l++ {
		line := (l * 7) % 5000
		if c.Access(line) != ref.Access(line) {
			t.Fatalf("hit/miss diverged at access %d", l)
		}
	}
	if got, want := c.Finalize(), ref.Finalize(); got != want {
		t.Fatalf("stats diverged after growth: fast %+v reference %+v", got, want)
	}
}

func TestFastLRUSparseLineJumps(t *testing.T) {
	// Line IDs that jump far past the table's current end, up to about
	// 2^20, interleaved with re-touches of earlier lines: every growth
	// must keep the resident and evicted lines it copies, and mark the
	// lines it adds unseen.
	r := gen.NewRNG(9)
	for _, cfg := range diffCfgs {
		c, ref := NewFastLRU(cfg), NewLRU(cfg)
		var touched []int64
		for i := 0; i < 4000; i++ {
			var line int64
			switch {
			case len(touched) > 0 && r.Intn(3) > 0:
				line = touched[r.Intn(int32(len(touched)))]
			case r.Intn(4) == 0:
				line = int64(r.Intn(1 << 20))
			default:
				line = int64(1) << r.Intn(21)
			}
			touched = append(touched, line)
			if got, want := c.Access(line), ref.Access(line); got != want {
				t.Fatalf("cfg %+v: access %d (line %d): fast hit=%v, reference hit=%v", cfg, i, line, got, want)
			}
		}
		if got, want := c.Finalize(), ref.Finalize(); got != want {
			t.Fatalf("cfg %+v: fast %+v, reference %+v", cfg, got, want)
		}
	}
}

func TestFastLRURejectsOutOfRangeLines(t *testing.T) {
	for _, line := range []int64{-1, 1 << 31, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%d) did not panic", line)
				}
			}()
			NewFastLRU(Config{CapacityBytes: 1024, LineBytes: 64, Ways: 2}).Access(line)
		}()
	}
}

func TestTraceChunkingBoundaries(t *testing.T) {
	// Exercise Len/At across a chunk boundary and exact-multiple lengths.
	for _, n := range []int64{0, 1, traceChunk - 1, traceChunk, traceChunk + 1, 2*traceChunk + 7} {
		tr := NewTrace(n)
		for i := int64(0); i < n; i++ {
			tr.Emit(i * 3)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for _, i := range []int64{0, n / 2, n - 1} {
			if n == 0 {
				break
			}
			if tr.At(i) != i*3 {
				t.Fatalf("At(%d) = %d, want %d", i, tr.At(i), i*3)
			}
		}
	}
}

func TestBeladyTraceChunkBoundaryDifferential(t *testing.T) {
	// A trace that straddles a chunk boundary with reuse across it: the
	// next-use distance of the final pre-boundary accesses points into the
	// next chunk, the cross-chunk bookkeeping most likely to break.
	r := gen.NewRNG(11)
	n := int64(traceChunk + traceChunk/2)
	flat := make([]int64, n)
	for i := range flat {
		flat[i] = int64(r.Intn(3000))
	}
	cfg := Config{CapacityBytes: 8192, LineBytes: 64, Ways: 4}
	ref := SimulateBelady(cfg, flat)
	fast := SimulateBeladyTrace(cfg, RecordTraceChunked(replay(flat), n))
	if ref != fast {
		t.Fatalf("cross-chunk stats diverged: reference %+v fast %+v", ref, fast)
	}
}

func TestSimulateBeladyFuncImpls(t *testing.T) {
	trace := replay([]int64{0, 1, 0, 2, 0, 1, 5, 9, 5, 0})
	cfg := Config{CapacityBytes: 128, LineBytes: 64, Ways: 2}
	ref := SimulateBeladyFunc(cfg, ImplReference, trace, 10)
	fast := SimulateBeladyFunc(cfg, ImplFast, trace, 10)
	if ref != fast {
		t.Fatalf("SimulateBeladyFunc impls diverged: %+v vs %+v", ref, fast)
	}
}

func TestParseImpl(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Impl
	}{{"fast", ImplFast}, {"reference", ImplReference}} {
		got, err := ParseImpl(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseImpl(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Impl.String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseImpl("plru"); err == nil {
		t.Fatal("ParseImpl accepted an unknown impl")
	}
}

func TestRecordTraceSizedClamp(t *testing.T) {
	// Negative and absurd hints must not panic or over-allocate; the
	// recording itself must be unaffected.
	for _, hint := range []int64{-5, 0, 3, 1 << 40} {
		got := RecordTraceSized(replay([]int64{4, 2, 4}), hint)
		if len(got) != 3 || got[0] != 4 || got[1] != 2 || got[2] != 4 {
			t.Fatalf("hint %d: recording = %v", hint, got)
		}
	}
}

// FuzzLRUFastVsReference drives random geometry + random traces through
// both LRU implementations and the two Belady paths, asserting bit-equal
// Stats. The trace bytes decode two line-ID width classes so both dense
// hot sets and sparse scatter are explored.
func FuzzLRUFastVsReference(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{0, 1, 2, 0, 1, 2, 9, 9})
	f.Add(uint8(4), uint8(16), []byte{7, 255, 1, 0, 44, 7, 7, 3, 250, 250})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, waysRaw, setsRaw uint8, data []byte) {
		ways := int32(waysRaw%8) + 1
		sets := int64(setsRaw%31) + 1 // non-power-of-two set counts included
		cfg := Config{CapacityBytes: 64 * int64(ways) * sets, LineBytes: 64, Ways: ways}
		if len(data) > 4096 {
			data = data[:4096]
		}
		trace := make([]int64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			// Alternate a narrow and a wide universe to mix conflict and
			// compulsory behaviour.
			if data[i]&1 == 0 {
				trace = append(trace, int64(data[i+1]))
			} else {
				trace = append(trace, int64(data[i])<<8|int64(data[i+1]))
			}
		}
		ref := SimulateLRUWith(cfg, ImplReference, replay(trace))
		fast := SimulateLRUWith(cfg, ImplFast, replay(trace))
		if ref != fast {
			t.Fatalf("LRU stats diverged on cfg %+v:\nreference %+v\nfast      %+v", cfg, ref, fast)
		}
		bref := SimulateBelady(cfg, trace)
		bfast := SimulateBeladyTrace(cfg, RecordTraceChunked(replay(trace), int64(len(trace))))
		if bref != bfast {
			t.Fatalf("Belady stats diverged on cfg %+v:\nreference %+v\nfast      %+v", cfg, bref, bfast)
		}
	})
}
