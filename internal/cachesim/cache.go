// Package cachesim models a set-associative last-level cache with LRU and
// Belady-optimal replacement. The paper builds exactly this tool
// (Section VI-B) to explain RABBIT++'s locality: a model of the A6000's
// 6 MB L2 validated to within 4% of hardware counters, plus an idealized
// Belady cache to bound the remaining headroom (Figure 8). It also tracks
// "dead lines" — lines filled but never reused (Table III).
//
//repro:deterministic
package cachesim

import (
	"fmt"

	"repro/internal/check"
)

// assertCoherent verifies the accounting identities every simulation must
// satisfy (active only under the check build tag).
func assertCoherent(s Stats) {
	check.Assert(s.Hits+s.Misses == s.Accesses,
		"cachesim: hits %d + misses %d != accesses %d", s.Hits, s.Misses, s.Accesses)
	check.Assert(s.Compulsory <= s.Misses,
		"cachesim: compulsory %d exceeds misses %d", s.Compulsory, s.Misses)
	check.Assert(s.Evictions <= s.Misses,
		"cachesim: evictions %d exceed misses %d", s.Evictions, s.Misses)
	check.Assert(s.DeadFills <= s.Misses,
		"cachesim: dead fills %d exceed misses %d", s.DeadFills, s.Misses)
}

// Config describes a cache geometry. LineBytes must be a power of two and
// CapacityBytes a multiple of LineBytes*Ways so the set count is
// integral; any positive set count is supported (the A6000 L2 has 3072
// sets).
type Config struct {
	// CapacityBytes is the total cache capacity in bytes.
	CapacityBytes int64
	// LineBytes is the cache-line size in bytes, a power of two; line IDs
	// are address/LineBytes, which internal/trace computes by shifting.
	LineBytes int64
	// Ways is the associativity (lines per set).
	Ways int32
}

// Sets returns the number of sets.
func (c Config) Sets() int64 {
	return c.CapacityBytes / (c.LineBytes * int64(c.Ways))
}

// Split returns the private-cache geometry of one of k equal tiles of
// this cache: the capacity divided by k and rounded down to the nearest
// multiple of LineBytes*Ways so the set count stays integral, with a
// floor of one set. Split(1) returns the receiver unchanged, which is
// what makes the K=1 multi-device simulation bit-identical to the flat
// path. k must be positive.
func (c Config) Split(k int) Config {
	if k <= 0 {
		panic(fmt.Sprintf("cachesim: Config.Split(%d)", k))
	}
	if k == 1 {
		return c
	}
	setBytes := c.LineBytes * int64(c.Ways)
	capacity := c.CapacityBytes / int64(k) / setBytes * setBytes
	if capacity < setBytes {
		capacity = setBytes
	}
	out := c
	out.CapacityBytes = capacity
	return out
}

// Validate returns an error for inexpressible geometries.
func (c Config) Validate() error {
	if c.CapacityBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cachesim: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d is not a power of two", c.LineBytes)
	}
	if c.CapacityBytes%(c.LineBytes*int64(c.Ways)) != 0 {
		return fmt.Errorf("cachesim: capacity %d not divisible by line*ways = %d",
			c.CapacityBytes, c.LineBytes*int64(c.Ways))
	}
	return nil
}

// setIndexer returns a function mapping a line ID to a set index, using a
// mask when the set count is a power of two and modulo otherwise (the real
// A6000 L2 has 3072 sets).
func (c Config) setIndexer() func(int64) int64 {
	sets := c.Sets()
	if sets&(sets-1) == 0 {
		mask := sets - 1
		return func(line int64) int64 { return line & mask }
	}
	return func(line int64) int64 { return line % sets }
}

// Stats accumulates the outcome of a simulation.
type Stats struct {
	// Accesses counts line-granular cache lookups.
	Accesses int64
	// Hits counts accesses that found their line resident.
	Hits int64
	// Misses counts accesses that did not (Accesses = Hits + Misses).
	Misses int64
	// Compulsory counts first-touch misses: lines never seen before.
	Compulsory int64
	// Evictions counts resident lines displaced to make room for a fill.
	Evictions int64
	// DeadFills counts fills that were evicted (or still resident at
	// Finalize) without a single hit — wasted cache capacity.
	DeadFills int64
	// LineBytes echoes the geometry so traffic can be derived.
	LineBytes int64
}

// TrafficBytes returns the DRAM read traffic implied by the misses.
func (s Stats) TrafficBytes() int64 { return s.Misses * s.LineBytes }

// HitRate returns hits/accesses, or 0 for an empty run.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// DeadLineFraction returns the fraction of fills that were never reused
// (Table III's metric).
func (s Stats) DeadLineFraction() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.DeadFills) / float64(s.Misses)
}

// LRU is the reference implementation of the set-associative
// least-recently-used cache modeling the A6000's L2: a timestamp scan per
// access plus a Go map for compulsory classification. The hot paths use
// FastLRU instead (bit-identical Stats, no per-access allocation); LRU
// stays as the differential-testing oracle behind ImplReference. Access it
// line by line via Access and read the Stats after Finalize.
type LRU struct {
	cfg   Config
	setOf func(int64) int64
	ways  int32
	// Per-way state, set-major layout: index = set*ways + way.
	tags    []int64 // line ID, -1 when invalid
	lastUse []uint64
	reused  []bool
	seen    map[int64]struct{} // for compulsory classification
	clock   uint64
	stats   Stats
}

// NewLRU builds an empty cache; it panics on an invalid geometry, which is
// always a programming error in this repository (geometries are static).
func NewLRU(cfg Config) *LRU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	total := sets * int64(cfg.Ways)
	c := &LRU{
		cfg:     cfg,
		setOf:   cfg.setIndexer(),
		ways:    cfg.Ways,
		tags:    make([]int64, total),
		lastUse: make([]uint64, total),
		reused:  make([]bool, total),
		seen:    make(map[int64]struct{}, 1<<16),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	c.stats.LineBytes = cfg.LineBytes
	return c
}

// Access touches one cache line (by line ID, i.e. address / LineBytes) and
// reports whether it hit. Line IDs must be non-negative; traces derived
// from trace.Layout always are, so a violation is a programming error.
func (c *LRU) Access(line int64) bool {
	if line < 0 {
		panic("cachesim: negative line ID")
	}
	c.clock++
	c.stats.Accesses++
	set := c.setOf(line)
	base := set * int64(c.ways)
	var victim int64 = base
	var victimAge uint64 = ^uint64(0)
	for w := int64(0); w < int64(c.ways); w++ {
		i := base + w
		if c.tags[i] == line {
			c.stats.Hits++
			c.lastUse[i] = c.clock
			c.reused[i] = true
			return true
		}
		if c.lastUse[i] < victimAge {
			victimAge = c.lastUse[i]
			victim = i
		}
	}
	// Miss: classify, evict the LRU way, fill.
	c.stats.Misses++
	if _, ok := c.seen[line]; !ok {
		c.seen[line] = struct{}{}
		c.stats.Compulsory++
	}
	if c.tags[victim] != -1 {
		c.stats.Evictions++
		if !c.reused[victim] {
			c.stats.DeadFills++
		}
	}
	c.tags[victim] = line
	c.lastUse[victim] = c.clock
	c.reused[victim] = false
	return false
}

// Finalize folds still-resident never-reused lines into DeadFills and
// returns the final statistics.
func (c *LRU) Finalize() Stats {
	s := c.stats
	for i, tag := range c.tags {
		if tag != -1 && !c.reused[i] {
			s.DeadFills++
		}
	}
	assertCoherent(s)
	return s
}
