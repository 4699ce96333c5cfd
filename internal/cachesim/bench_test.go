package cachesim

import (
	"testing"

	"repro/internal/gen"
)

// benchCfg is the Small-corpus device geometry (32 KB, 16-way, 128 B
// lines) the experiment suite simulates against.
var benchCfg = Config{CapacityBytes: 32 << 10, LineBytes: 128, Ways: 16}

// benchTrace mimics a kernel reference stream: streaming operand runs
// interleaved with Zipf-distributed irregular accesses over a footprint
// several times the cache.
func benchTrace(n int) []int64 {
	r := gen.NewRNG(42)
	trace := make([]int64, n)
	seq := int64(1 << 20)
	for i := range trace {
		switch i % 4 {
		case 0, 1: // irregular X-vector style accesses
			trace[i] = int64(r.Zipf(8192, 0.8))
		case 2: // streaming run
			trace[i] = seq
			if i%8 == 0 {
				seq++
			}
		case 3:
			trace[i] = int64(2<<20) + int64(r.Intn(4096))
		}
	}
	return trace
}

// BenchmarkLRUAccess compares the per-access cost of the two LRU
// implementations on the same mixed stream. The fast path must report
// 0 allocs/op; scripts/bench.sh records the ratio in BENCH_cachesim.json.
func BenchmarkLRUAccess(b *testing.B) {
	trace := benchTrace(1 << 20)
	b.Run("fast", func(b *testing.B) {
		c := NewFastLRU(benchCfg)
		b.ReportAllocs()
		b.ResetTimer()
		j := 0
		for i := 0; i < b.N; i++ {
			c.Access(trace[j])
			if j++; j == len(trace) {
				j = 0
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		c := NewLRU(benchCfg)
		b.ReportAllocs()
		b.ResetTimer()
		j := 0
		for i := 0; i < b.N; i++ {
			c.Access(trace[j])
			if j++; j == len(trace) {
				j = 0
			}
		}
	})
}

// BenchmarkBelady compares the full Belady pipelines (record + next-use +
// forward simulation) per simulated access.
func BenchmarkBelady(b *testing.B) {
	trace := benchTrace(1 << 18)
	replay := func(emit func(int64)) {
		for _, l := range trace {
			emit(l)
		}
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SimulateBeladyTrace(benchCfg, RecordTraceChunked(replay))
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SimulateBelady(benchCfg, RecordTrace(replay))
		}
	})
}
