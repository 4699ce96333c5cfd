package cachesim

// This file is the simulator's fast path: an arena-backed LRU whose
// per-access work is one load from a line-indexed table plus an
// intrusive-list splice, with zero heap allocations per access. It
// replaces the reference implementation (cache.go) on every hot loop; the
// reference stays behind Impl selection (impl.go) as the
// differential-testing oracle. Both implementations produce bit-identical
// Stats for every trace: LRU replacement with strictly increasing access
// clocks is deterministic, and the fill order of invalid ways cannot
// affect any counted event.

// slot is one cache way in the arena. Slots live in a single flat slice
// indexed by set*ways+way; prev/next link the slot into its set's recency
// list (indices into the same slice, -1 = none), so a hit reorders the set
// with four pointer writes instead of a timestamp scan.
type slot struct {
	line int64 // resident line ID, -1 while the way is invalid
	prev int32 // neighbour toward MRU, -1 at the head
	next int32 // neighbour toward LRU, -1 at the tail
	set  int32 // owning set (precomputed: slots never change sets)
	// reused records whether the resident line hit at least once since it
	// was filled; cleared on every fill (Table III's dead-line metric).
	reused bool
}

// Values of FastLRU.where besides a resident line's arena slot index.
const (
	lineEvicted = int32(-1) // line seen before but not resident
	lineUnseen  = int32(-2) // line never touched: its first miss is compulsory
)

// maxLines bounds the line IDs FastLRU accepts: where is indexed by line
// ID, and 2^31 entries (8 GiB) is far beyond any trace in this repository.
const maxLines = 1 << 31

// FastLRU is the arena-backed fast path of the LRU model: identical
// replacement semantics and Stats to LRU (cache.go), with O(1) hits and
// misses and no per-access allocation. It is the default implementation
// behind SimulateLRU; construct it directly (or via NewSimulator) to
// stream accesses by hand.
//
// Determinism: given the same Config and access sequence, every counter in
// the final Stats is identical run to run and identical to the reference
// implementation's — the differential suite (differential fuzz target and
// corpus test) enforces this.
type FastLRU struct {
	cfg   Config
	sets  int64
	mask  int64 // sets-1 when the set count is a power of two, else -1
	ways  int32
	slots []slot
	head  []int32 // per-set MRU slot index, -1 while the set is empty
	tail  []int32 // per-set LRU slot index
	fill  []int32 // per-set count of valid ways (fills go to slot base+fill)
	// where is indexed by line ID: the resident line's arena slot, or
	// lineEvicted, or lineUnseen. It doubles the "ever seen" set of
	// compulsory-miss classification. Trace layouts number lines densely
	// from 0, so it costs 4 bytes per line of the footprint.
	where []int32
	stats Stats
}

var _ Simulator = (*FastLRU)(nil)

// NewFastLRU builds an empty fast-path cache. Its line table starts empty
// and grows by doubling to cover the largest line ID accessed. Panics on
// an invalid geometry, which is always a programming error in this
// repository.
func NewFastLRU(cfg Config) *FastLRU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	total := sets * int64(cfg.Ways)
	c := &FastLRU{
		cfg:   cfg,
		sets:  sets,
		mask:  -1,
		ways:  cfg.Ways,
		slots: make([]slot, total),
		head:  make([]int32, sets),
		tail:  make([]int32, sets),
		fill:  make([]int32, sets),
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	for i := range c.slots {
		c.slots[i].line = -1
		c.slots[i].set = int32(int64(i) / int64(cfg.Ways))
	}
	for s := range c.head {
		c.head[s] = -1
		c.tail[s] = -1
	}
	c.stats.LineBytes = cfg.LineBytes
	return c
}

// setOf maps a line ID to its set: a mask for power-of-two set counts, a
// modulo otherwise (the A6000 L2 has 3072 sets).
//
//repro:noalloc
func (c *FastLRU) setOf(line int64) int64 {
	if c.mask >= 0 {
		return line & c.mask
	}
	return line % c.sets
}

// moveToFront splices an already-linked slot to the MRU end of its set.
//
//repro:noalloc
func (c *FastLRU) moveToFront(set int64, si int32) {
	if c.head[set] == si {
		return
	}
	s := &c.slots[si]
	// Unlink. s has a prev because it is not the head.
	c.slots[s.prev].next = s.next
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail[set] = s.prev
	}
	// Relink at the head.
	s.prev = -1
	s.next = c.head[set]
	c.slots[c.head[set]].prev = si
	c.head[set] = si
}

// grow extends where to cover line, doubling its length, and marks the
// new entries unseen. It stays out of line so that Access, which calls it
// only while new lines keep appearing past the table's end, makes no heap
// allocation itself.
//
//go:noinline
func (c *FastLRU) grow(line int64) {
	if line < 0 {
		panic("cachesim: negative line ID")
	}
	if line >= maxLines {
		panic("cachesim: line ID at or above 2^31")
	}
	size := max(int64(len(c.where))*2, 1024)
	for size <= line {
		size *= 2
	}
	where := make([]int32, size)
	n := copy(where, c.where)
	for i := n; i < len(where); i++ {
		where[i] = lineUnseen
	}
	c.where = where
}

// pushFront links a fresh (previously unlinked) slot at the MRU end.
//
//repro:noalloc
func (c *FastLRU) pushFront(set int64, si int32) {
	s := &c.slots[si]
	s.prev = -1
	s.next = c.head[set]
	if c.head[set] >= 0 {
		c.slots[c.head[set]].prev = si
	} else {
		c.tail[set] = si
	}
	c.head[set] = si
}

// Access touches one cache line (by line ID, i.e. address / LineBytes) and
// reports whether it hit. Line IDs must lie in [0, 2^31); traces derived
// from trace.Layout always do, so a violation is a programming error and
// panics. The fast path performs no heap allocation (the line table grows
// amortized only while new lines keep appearing past its end).
//
//repro:noalloc
func (c *FastLRU) Access(line int64) bool {
	if uint64(line) >= uint64(len(c.where)) {
		c.grow(line)
	}
	c.stats.Accesses++
	si := c.where[line]
	if si >= 0 {
		c.stats.Hits++
		s := &c.slots[si]
		s.reused = true
		c.moveToFront(int64(s.set), si)
		return true
	}
	c.stats.Misses++
	if si == lineUnseen {
		c.stats.Compulsory++
	}
	set := c.setOf(line)
	var dst int32
	if c.fill[set] < c.ways {
		// Fill an invalid way. The reference implementation fills ways in
		// ascending index order; mirroring it keeps the arenas comparable
		// in tests, though no Stats field can observe the choice.
		dst = int32(set*int64(c.ways)) + c.fill[set]
		c.fill[set]++
		c.pushFront(set, dst)
	} else {
		// Evict the set's LRU slot.
		dst = c.tail[set]
		v := &c.slots[dst]
		c.stats.Evictions++
		if !v.reused {
			c.stats.DeadFills++
		}
		c.where[v.line] = lineEvicted
		c.moveToFront(set, dst)
	}
	s := &c.slots[dst]
	s.line = line
	s.reused = false
	c.where[line] = dst
	return false
}

// Finalize folds still-resident never-reused lines into DeadFills and
// returns the final statistics. The receiver can keep streaming accesses
// afterwards; Finalize is a pure read.
//
//repro:noalloc
func (c *FastLRU) Finalize() Stats {
	s := c.stats
	for i := range c.slots {
		if c.slots[i].line != -1 && !c.slots[i].reused {
			s.DeadFills++
		}
	}
	assertCoherent(s)
	return s
}
