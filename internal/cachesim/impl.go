package cachesim

import "fmt"

// Simulator is the streaming interface every replacement-policy simulator
// in this package satisfies: feed line-granular accesses in program order,
// then read the aggregate Stats. Implementations are deterministic — the
// same Config and access sequence always produce the same Stats.
type Simulator interface {
	// Access touches one cache line (line ID = byte address / LineBytes,
	// non-negative) and reports whether it hit.
	Access(line int64) bool
	// Finalize folds end-of-trace accounting (still-resident dead lines)
	// into the Stats and returns them.
	Finalize() Stats
}

var (
	_ Simulator = (*LRU)(nil)
	_ Simulator = (*Cache)(nil)
)

// Impl selects between the two LRU/Belady implementations: the fast path
// (arena LRU, streaming Belady — the default everywhere) and the seed
// reference implementation kept as the differential-testing oracle. The
// two produce bit-identical Stats on every trace.
type Impl int

const (
	// ImplFast is the arena/streaming fast path (fast.go, beladyfast.go).
	ImplFast Impl = iota
	// ImplReference is the seed implementation (cache.go, belady.go):
	// map-per-access LRU and materialized-trace Belady. Slower, simpler,
	// and the oracle the fast path is differentially tested against.
	ImplReference
)

// String names the implementation as accepted by ParseImpl.
func (i Impl) String() string {
	switch i {
	case ImplFast:
		return "fast"
	case ImplReference:
		return "reference"
	default:
		return fmt.Sprintf("Impl(%d)", int(i))
	}
}

// ParseImpl resolves the -impl flag values "fast" and "reference".
func ParseImpl(s string) (Impl, error) {
	switch s {
	case "fast":
		return ImplFast, nil
	case "reference":
		return ImplReference, nil
	default:
		return 0, fmt.Errorf("cachesim: unknown impl %q (want fast or reference)", s)
	}
}

// NewSimulator builds an empty LRU simulator of the chosen implementation.
func NewSimulator(cfg Config, impl Impl) Simulator {
	if impl == ImplReference {
		return NewLRU(cfg)
	}
	return NewFastLRU(cfg)
}

// SimulateLRU runs a complete trace through a fresh LRU cache on the fast
// path. The trace callback must invoke emit once per line-granular access,
// in program order. Stats are bit-identical to the reference
// implementation's (SimulateLRUWith with ImplReference).
func SimulateLRU(cfg Config, trace func(emit func(line int64))) Stats {
	return SimulateLRUWith(cfg, ImplFast, trace)
}

// SimulateLRUWith is SimulateLRU with an explicit implementation choice;
// the experiment drivers expose it as -impl for differential runs.
func SimulateLRUWith(cfg Config, impl Impl, trace func(emit func(line int64))) Stats {
	c := NewSimulator(cfg, impl)
	trace(func(line int64) { c.Access(line) })
	return c.Finalize()
}

// SimulateBeladyFunc records the trace callback and simulates it under
// Belady-optimal replacement with the chosen implementation. The fast
// path records into fixed-size chunks and streams next-use distances
// (SimulateBeladyTrace); the reference path materializes a flat []int64
// and runs the seed oracle. Both return bit-identical Stats.
func SimulateBeladyFunc(cfg Config, impl Impl, trace func(emit func(line int64))) Stats {
	if impl == ImplReference {
		return SimulateBelady(cfg, RecordTrace(trace))
	}
	return SimulateBeladyTrace(cfg, RecordTraceChunked(trace))
}
