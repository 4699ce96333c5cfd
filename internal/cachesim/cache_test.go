package cachesim

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func tinyCfg() Config {
	// 8 sets × 2 ways × 64B lines = 1 KB.
	return Config{CapacityBytes: 1024, LineBytes: 64, Ways: 2}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	// Non-power-of-two set counts are valid (the A6000 L2 has 3072 sets).
	if err := (Config{CapacityBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2}).Validate(); err != nil {
		t.Fatalf("3-set geometry rejected: %v", err)
	}
	bad := []Config{
		{CapacityBytes: 0, LineBytes: 64, Ways: 2},
		{CapacityBytes: 1000, LineBytes: 64, Ways: 2}, // not divisible
		{CapacityBytes: 1024, LineBytes: -1, Ways: 2},
		{CapacityBytes: 96 * 16, LineBytes: 96, Ways: 16}, // line not a power of two
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if got := tinyCfg().Sets(); got != 8 {
		t.Fatalf("Sets = %d, want 8", got)
	}
}

func TestLRUHitAndMiss(t *testing.T) {
	c := NewLRU(tinyCfg())
	if c.Access(0) {
		t.Fatal("first touch hit")
	}
	if !c.Access(0) {
		t.Fatal("immediate re-touch missed")
	}
	s := c.Finalize()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Compulsory != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TrafficBytes() != 64 {
		t.Fatalf("traffic = %d, want 64", s.TrafficBytes())
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", s.HitRate())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 2-way set: lines 0, 8, 16 all map to set 0 (8 sets). After touching
	// 0 then 8, touching 16 must evict 0 (the LRU way).
	c := NewLRU(tinyCfg())
	c.Access(0)
	c.Access(8)
	c.Access(16) // evicts 0
	if c.Access(8) != true {
		t.Fatal("line 8 should still be resident")
	}
	if c.Access(0) {
		t.Fatal("line 0 should have been evicted")
	}
}

func TestLRUConflictMissesNotCompulsory(t *testing.T) {
	c := NewLRU(tinyCfg())
	c.Access(0)
	c.Access(8)
	c.Access(16)
	c.Access(0) // conflict miss, not compulsory
	s := c.Finalize()
	if s.Compulsory != 3 {
		t.Fatalf("compulsory = %d, want 3", s.Compulsory)
	}
	if s.Misses != 4 {
		t.Fatalf("misses = %d, want 4", s.Misses)
	}
}

func TestDeadLineTracking(t *testing.T) {
	// Touch lines 0..23 once (24 fills in a 16-line cache), never reuse:
	// every fill is dead, whether evicted or still resident at the end.
	c := NewLRU(tinyCfg())
	for l := int64(0); l < 24; l++ {
		c.Access(l)
	}
	s := c.Finalize()
	if s.DeadFills != 24 {
		t.Fatalf("DeadFills = %d, want 24", s.DeadFills)
	}
	if s.DeadLineFraction() != 1.0 {
		t.Fatalf("DeadLineFraction = %v, want 1", s.DeadLineFraction())
	}
	// A fully reused run has no dead lines.
	c = NewLRU(tinyCfg())
	for rep := 0; rep < 2; rep++ {
		for l := int64(0); l < 8; l++ {
			c.Access(l)
		}
	}
	if s := c.Finalize(); s.DeadFills != 0 {
		t.Fatalf("fully reused run has %d dead fills", s.DeadFills)
	}
}

func TestBeladyKnownSchedule(t *testing.T) {
	// Direct-mapped-equivalent stress: 1 set, 2 ways, classic Belady
	// example. Trace: a b c a b c with 2 ways.
	// OPT: fill a, fill b; c evicts whichever of a/b is used later... all
	// reused equally; compute misses: a(m) b(m) c(m, evict b since b's next
	// use (4) is after a's (3)) a(h) b(m, evict ...) c(...).
	cfg := Config{CapacityBytes: 128, LineBytes: 64, Ways: 2} // 1 set
	trace := []int64{0, 1, 2, 0, 1, 2}
	s := SimulateBelady(cfg, trace)
	// Belady on cyclic 3-line trace with 2 ways: misses = 3 compulsory +
	// at most 1 more. LRU would miss all 6.
	lru := SimulateLRU(cfg, func(emit func(int64)) {
		for _, l := range trace {
			emit(l)
		}
	})
	if lru.Misses != 6 {
		t.Fatalf("LRU misses = %d, want 6 (cyclic thrash)", lru.Misses)
	}
	if s.Misses >= lru.Misses {
		t.Fatalf("Belady misses %d not better than LRU %d", s.Misses, lru.Misses)
	}
	if s.Misses < 3 {
		t.Fatalf("Belady misses %d below compulsory 3", s.Misses)
	}
}

func TestBeladyNeverWorseThanLRU(t *testing.T) {
	f := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		trace := make([]int64, 4000)
		for i := range trace {
			trace[i] = int64(r.Intn(200))
		}
		cfg := Config{CapacityBytes: 4096, LineBytes: 64, Ways: 4} // 16 sets
		lru := SimulateLRU(cfg, func(emit func(int64)) {
			for _, l := range trace {
				emit(l)
			}
		})
		opt := SimulateBelady(cfg, trace)
		return opt.Misses <= lru.Misses && opt.Misses >= opt.Compulsory &&
			lru.Compulsory == opt.Compulsory
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUMonotoneInCapacityFullyAssociative(t *testing.T) {
	// The LRU inclusion property: a larger fully-associative LRU cache
	// never misses more.
	r := gen.NewRNG(9)
	trace := make([]int64, 6000)
	for i := range trace {
		trace[i] = int64(r.Zipf(500, 0.8))
	}
	run := func(lines int64) int64 {
		cfg := Config{CapacityBytes: 64 * lines, LineBytes: 64, Ways: int32(lines)} // 1 set
		return SimulateLRU(cfg, func(emit func(int64)) {
			for _, l := range trace {
				emit(l)
			}
		}).Misses
	}
	prev := run(8)
	for _, lines := range []int64{16, 32, 64, 128} {
		cur := run(lines)
		if cur > prev {
			t.Fatalf("misses grew from %d to %d when capacity doubled to %d lines", prev, cur, lines)
		}
		prev = cur
	}
}

func TestCompulsoryEqualsDistinctLines(t *testing.T) {
	f := func(seed uint64) bool {
		r := gen.NewRNG(seed)
		trace := make([]int64, 2000)
		distinct := map[int64]bool{}
		for i := range trace {
			trace[i] = int64(r.Intn(300))
			distinct[trace[i]] = true
		}
		cfg := Config{CapacityBytes: 2048, LineBytes: 64, Ways: 2}
		lru := SimulateLRU(cfg, func(emit func(int64)) {
			for _, l := range trace {
				emit(l)
			}
		})
		opt := SimulateBelady(cfg, trace)
		return lru.Compulsory == int64(len(distinct)) && opt.Compulsory == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestInfiniteCacheOnlyCompulsory(t *testing.T) {
	r := gen.NewRNG(3)
	cfg := Config{CapacityBytes: 64 * 1 << 20, LineBytes: 64, Ways: 16}
	c := NewLRU(cfg)
	for i := 0; i < 50000; i++ {
		c.Access(int64(r.Intn(5000)))
	}
	s := c.Finalize()
	if s.Misses != s.Compulsory {
		t.Fatalf("cache larger than footprint has %d misses but %d compulsory", s.Misses, s.Compulsory)
	}
}

func TestRecordTrace(t *testing.T) {
	got := RecordTrace(func(emit func(int64)) {
		emit(3)
		emit(1)
		emit(3)
	})
	want := []int64{3, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("RecordTrace = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RecordTrace = %v, want %v", got, want)
		}
	}
}

func TestBeladyEmptyTrace(t *testing.T) {
	s := SimulateBelady(tinyCfg(), nil)
	if s.Accesses != 0 || s.Misses != 0 {
		t.Fatalf("empty trace stats = %+v", s)
	}
}
