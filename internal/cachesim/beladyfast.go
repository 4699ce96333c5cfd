package cachesim

import "math"

// This file is Belady's fast path. The reference SimulateBelady needs the
// whole trace as one contiguous []int64 plus a same-length next-use array
// and a Go map of last-seen indices — three allocations that each scale
// with the trace (an SpMM-256 stream is ~12 accesses per nonzero). The
// streaming path instead records the trace in fixed-size chunks, computes
// exact next-use information in one reverse pass with an open-addressed
// index table, and stores it as 4-byte forward distances: almost every
// next use is nearby, and everything at or beyond the end of the trace
// lands in one "never again" bucket (distNever). The forward simulation
// then replays the chunks with the reference victim-selection rule, so
// the resulting Stats are bit-identical to the reference oracle's.

// traceChunkBits sizes the recording chunks: 1<<16 line IDs (512 KB) per
// chunk keeps allocation incremental without measurable per-access cost.
const traceChunkBits = 16

const traceChunk = 1 << traceChunkBits

// Trace is a chunked, append-only recording of cache-line IDs — the
// streaming Belady input. Unlike RecordTrace's flat slice it never
// reallocates recorded data (chunks are fixed-size), so peak memory is the
// recording itself plus one chunk, not the 2× transient of append doubling.
type Trace struct {
	chunks [][]int64
	n      int64
}

// NewTrace returns an empty recording. sizeHint is the expected number of
// accesses (0 is always safe); it pre-sizes the chunk index only — chunk
// payloads are allocated as the recording grows, so over-estimates cost
// eight bytes per missing chunk, not a giant flat array.
func NewTrace(sizeHint int64) *Trace {
	t := &Trace{}
	if sizeHint > 0 {
		const maxHintChunks = 1 << 20 // index pre-size cap: 8 MB of pointers
		hintChunks := sizeHint>>traceChunkBits + 1
		if hintChunks > maxHintChunks {
			hintChunks = maxHintChunks
		}
		t.chunks = make([][]int64, 0, hintChunks)
	}
	return t
}

// Emit appends one line-granular access; it is the recording end of the
// trace-callback protocol (pass t.Emit as the emit function).
func (t *Trace) Emit(line int64) {
	i := int(t.n & (traceChunk - 1))
	if i == 0 {
		t.chunks = append(t.chunks, make([]int64, traceChunk))
	}
	t.chunks[len(t.chunks)-1][i] = line
	t.n++
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int64 { return t.n }

// At returns the i-th recorded line ID; i must be in [0, Len()).
//
//repro:noalloc
func (t *Trace) At(i int64) int64 {
	return t.chunks[i>>traceChunkBits][i&(traceChunk-1)]
}

// RecordTraceChunked drives the trace callback into a chunked recording
// sized by sizeHint (expected access count, 0 when unknown).
func RecordTraceChunked(trace func(emit func(line int64)), sizeHint int64) *Trace {
	t := NewTrace(sizeHint)
	trace(t.Emit)
	return t
}

// distNever is the "no next use before the end of the trace" bucket of the
// 4-byte distance encoding. Distances are exact for every trace shorter
// than 2^32-1 accesses; longer traces fall back to the reference oracle.
const distNever = ^uint32(0)

// idxTable is an open-addressed line → trace-index table used by the
// reverse next-use pass; after the pass completes each key holds the index
// of its line's first access, which the forward pass uses for
// compulsory-miss classification without a separate seen-set.
type idxTable struct {
	keys []int64
	vals []int64
	used int
	mask uint64
}

// lineEmpty marks a free idxTable bucket (line IDs are non-negative).
const lineEmpty = int64(-1)

func newIdxTable(hint int64) idxTable {
	const maxHint = 1 << 26
	if hint > maxHint {
		hint = maxHint
	}
	size := 1024
	for int64(size)*3 < hint*4 {
		size <<= 1
	}
	t := idxTable{
		keys: make([]int64, size),
		vals: make([]int64, size),
		mask: uint64(size - 1),
	}
	for i := range t.keys {
		t.keys[i] = lineEmpty
	}
	return t
}

func (t *idxTable) hash(line int64) uint64 {
	return (uint64(line) * 0x9e3779b97f4a7c15) >> 32 & t.mask
}

// find returns the bucket for line, its value, and whether it was present.
//
//repro:noalloc
func (t *idxTable) find(line int64) (bucket int, val int64, found bool) {
	i := t.hash(line)
	for {
		k := t.keys[i]
		if k == line {
			return int(i), t.vals[i], true
		}
		if k == lineEmpty {
			return int(i), 0, false
		}
		i = (i + 1) & t.mask
	}
}

// insert adds a new key at find's bucket, growing first when needed.
func (t *idxTable) insert(bucket int, line, val int64) {
	if (t.used+1)*4 > len(t.keys)*3 {
		t.grow()
		bucket, _, _ = t.find(line)
	}
	t.keys[bucket] = line
	t.vals[bucket] = val
	t.used++
}

func (t *idxTable) grow() {
	old := *t
	size := len(old.keys) * 2
	t.keys = make([]int64, size)
	t.vals = make([]int64, size)
	t.mask = uint64(size - 1)
	for i := range t.keys {
		t.keys[i] = lineEmpty
	}
	for i, k := range old.keys {
		if k == lineEmpty {
			continue
		}
		j := t.hash(k)
		for t.keys[j] != lineEmpty {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = old.vals[i]
	}
}

// SimulateBeladyTrace runs a chunked recording through the streaming
// Belady-optimal simulator. The Stats are bit-identical to the reference
// SimulateBelady on the same access sequence (the differential suite
// enforces this); determinism follows from the exact next-use indices and
// the fixed way-scan victim rule. Traces of 2^32-1 accesses or more (an
// unreachable ~34 GB recording) delegate to the reference oracle, whose
// int64 next-use indices have no horizon.
func SimulateBeladyTrace(cfg Config, t *Trace) Stats {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if t.n >= math.MaxUint32 {
		flat := make([]int64, t.n)
		for i := int64(0); i < t.n; i++ {
			flat[i] = t.At(i)
		}
		return SimulateBelady(cfg, flat)
	}

	// Reverse pass: exact forward distance to each access's next use,
	// chunk by chunk, 4 bytes per access. The index table ends up holding
	// every line's first-access index.
	dist := make([][]uint32, len(t.chunks))
	idx := newIdxTable(int64(len(t.chunks)) * traceChunk / 8)
	for ci := len(t.chunks) - 1; ci >= 0; ci-- {
		chunk := t.chunks[ci]
		used := traceChunk
		if ci == len(t.chunks)-1 {
			used = int((t.n-1)&(traceChunk-1)) + 1
		}
		d := make([]uint32, used)
		base := int64(ci) << traceChunkBits
		for i := used - 1; i >= 0; i-- {
			line := chunk[i]
			if line < 0 {
				panic("cachesim: negative line ID")
			}
			abs := base + int64(i)
			bucket, later, found := idx.find(line)
			if found {
				d[i] = uint32(later - abs)
				idx.vals[bucket] = abs
			} else {
				d[i] = distNever
				idx.insert(bucket, line, abs)
			}
		}
		dist[ci] = d
	}

	// Forward pass: identical victim selection to the reference oracle —
	// scan ways in index order, prefer the first invalid way, otherwise
	// evict the strictly furthest next use.
	sets := cfg.Sets()
	setOf := cfg.setIndexer()
	ways := int64(cfg.Ways)
	const never = int64(1) << 62
	tags := make([]int64, sets*ways)
	next := make([]int64, sets*ways)
	reused := make([]bool, sets*ways)
	for i := range tags {
		tags[i] = -1
	}
	stats := Stats{LineBytes: cfg.LineBytes}

	for ci, chunk := range t.chunks {
		d := dist[ci]
		base := int64(ci) << traceChunkBits
		for i := range d {
			line := chunk[i]
			abs := base + int64(i)
			nextUse := never
			if d[i] != distNever {
				nextUse = abs + int64(d[i])
			}
			stats.Accesses++
			set := setOf(line)
			sb := set * ways
			hit := false
			var victim, victimNext int64 = sb, -1
			for w := int64(0); w < ways; w++ {
				k := sb + w
				if tags[k] == line {
					hit = true
					next[k] = nextUse
					reused[k] = true
					break
				}
				if tags[k] == -1 {
					if victimNext != never+1 {
						victim, victimNext = k, never+1
					}
					continue
				}
				if next[k] > victimNext {
					victim, victimNext = k, next[k]
				}
			}
			if hit {
				stats.Hits++
				continue
			}
			stats.Misses++
			if _, first, _ := idx.find(line); first == abs {
				stats.Compulsory++
			}
			if tags[victim] != -1 {
				stats.Evictions++
				if !reused[victim] {
					stats.DeadFills++
				}
			}
			tags[victim] = line
			next[victim] = nextUse
			reused[victim] = false
		}
	}
	for k, tag := range tags {
		if tag != -1 && !reused[k] {
			stats.DeadFills++
		}
	}
	assertCoherent(stats)
	return stats
}
