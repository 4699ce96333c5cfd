package cachesim

import (
	"testing"

	"repro/internal/gen"
)

func zipfTrace(seed uint64, n, lines int32) []int64 {
	r := gen.NewRNG(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Zipf(lines, 0.9))
	}
	return out
}

func runPolicy(cfg Config, p Policy, trace []int64) Stats {
	return Simulate(cfg, p, func(emit func(int64)) {
		for _, l := range trace {
			emit(l)
		}
	})
}

func TestPolicyNames(t *testing.T) {
	if PolicyLRU.String() != "LRU" || PolicyPLRU.String() != "PLRU" || PolicyRandom.String() != "RANDOM" {
		t.Fatal("policy names wrong")
	}
}

func TestCacheLRUMatchesLegacyLRU(t *testing.T) {
	// The policy entry point's LRU is the production fast path; it must
	// match the seed reference LRU, the oracle, on every Stats field.
	cfg := Config{CapacityBytes: 8192, LineBytes: 64, Ways: 4}
	trace := zipfTrace(1, 20000, 500)
	a := runPolicy(cfg, PolicyLRU, trace)
	b := SimulateLRUWith(cfg, ImplReference, replay(trace))
	if a != b {
		t.Fatalf("policy-engine LRU %+v differs from reference LRU %+v", a, b)
	}
}

func TestPoliciesRespectBounds(t *testing.T) {
	cfg := Config{CapacityBytes: 8192, LineBytes: 64, Ways: 4}
	trace := zipfTrace(2, 30000, 800)
	opt := SimulateBelady(cfg, trace)
	for _, p := range []Policy{PolicyLRU, PolicyPLRU, PolicyRandom} {
		s := runPolicy(cfg, p, trace)
		if s.Misses < opt.Misses {
			t.Fatalf("%s misses %d below Belady %d", p, s.Misses, opt.Misses)
		}
		if s.Misses < s.Compulsory {
			t.Fatalf("%s misses below compulsory", p)
		}
		if s.Compulsory != opt.Compulsory {
			t.Fatalf("%s compulsory %d != %d", p, s.Compulsory, opt.Compulsory)
		}
	}
}

func TestPLRUApproximatesLRU(t *testing.T) {
	// On a reuse-friendly trace PLRU should land within a modest factor of
	// true LRU and far from the all-miss ceiling.
	cfg := Config{CapacityBytes: 64 * 256, LineBytes: 64, Ways: 8}
	trace := zipfTrace(3, 60000, 1000)
	lru := runPolicy(cfg, PolicyLRU, trace)
	plru := runPolicy(cfg, PolicyPLRU, trace)
	if plru.Misses > lru.Misses*3/2 {
		t.Fatalf("PLRU misses %d vs LRU %d; approximation too loose", plru.Misses, lru.Misses)
	}
}

func TestPLRUSingleWayAndFullTree(t *testing.T) {
	// Direct-mapped PLRU degenerates to direct-mapped behaviour.
	cfg := Config{CapacityBytes: 64 * 16, LineBytes: 64, Ways: 1}
	s := runPolicy(cfg, PolicyPLRU, []int64{0, 16, 0, 16})
	if s.Hits != 0 || s.Misses != 4 {
		t.Fatalf("direct-mapped conflict trace: %+v", s)
	}
	// 2-way PLRU is exactly LRU.
	cfg2 := Config{CapacityBytes: 64 * 2, LineBytes: 64, Ways: 2} // 1 set
	tr := zipfTrace(4, 5000, 6)
	if a, b := runPolicy(cfg2, PolicyPLRU, tr), runPolicy(cfg2, PolicyLRU, tr); a.Misses != b.Misses {
		t.Fatalf("2-way PLRU (%d misses) must equal LRU (%d)", a.Misses, b.Misses)
	}
}

func TestPLRURejectsNonPowerOfTwoWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PLRU with 3 ways accepted")
		}
	}()
	New(Config{CapacityBytes: 64 * 3, LineBytes: 64, Ways: 3}, PolicyPLRU)
}

func TestRandomPolicyDeterministic(t *testing.T) {
	cfg := Config{CapacityBytes: 4096, LineBytes: 64, Ways: 4}
	trace := zipfTrace(5, 20000, 400)
	a := runPolicy(cfg, PolicyRandom, trace)
	b := runPolicy(cfg, PolicyRandom, trace)
	if a != b {
		t.Fatal("random policy must be deterministic run to run (seeded)")
	}
}
