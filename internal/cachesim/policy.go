package cachesim

import "fmt"

// Policy selects the replacement strategy of a simulated cache. LRU models
// the A6000's L2 (the paper validates this within 4% of hardware); PLRU is
// the cheaper tree-based approximation real caches often implement; RANDOM
// is the classic lower bar. Belady-optimal replacement has its own entry
// point (SimulateBelady) because it needs the whole trace.
type Policy int

const (
	// PolicyLRU evicts the least-recently-used way.
	PolicyLRU Policy = iota
	// PolicyPLRU evicts along the tree-bit pseudo-LRU path.
	PolicyPLRU
	// PolicyRandom evicts a uniformly random way (deterministic seed).
	PolicyRandom
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "LRU"
	case PolicyPLRU:
		return "PLRU"
	case PolicyRandom:
		return "RANDOM"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Cache is a set-associative cache with PLRU or RANDOM replacement. LRU
// has one production implementation, FastLRU, which New returns for
// PolicyLRU.
type Cache struct {
	cfg    Config
	policy Policy
	setOf  func(int64) int64
	ways   int32
	tags   []int64
	reused []bool
	// PLRU state: one tree-bit vector per set (ways-1 bits packed in a
	// uint32; supports up to 32 ways).
	plru []uint32
	// Random state
	rng   uint64
	seen  map[int64]struct{}
	stats Stats
}

// New builds an empty cache with the given replacement policy: the fast
// LRU (NewFastLRU) for PolicyLRU, a Cache otherwise. It panics on invalid
// geometry (static configuration is a programming error) and on PLRU with
// non-power-of-two associativity.
func New(cfg Config, policy Policy) Simulator {
	if policy == PolicyLRU {
		return NewFastLRU(cfg)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if policy == PolicyPLRU && (cfg.Ways&(cfg.Ways-1)) != 0 {
		panic("cachesim: PLRU requires power-of-two associativity")
	}
	total := cfg.Sets() * int64(cfg.Ways)
	c := &Cache{
		cfg:    cfg,
		policy: policy,
		setOf:  cfg.setIndexer(),
		ways:   cfg.Ways,
		tags:   make([]int64, total),
		reused: make([]bool, total),
		plru:   make([]uint32, cfg.Sets()),
		rng:    0x9e3779b97f4a7c15,
		seen:   make(map[int64]struct{}, 1<<16),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	c.stats.LineBytes = cfg.LineBytes
	return c
}

// Access touches one cache line and reports whether it hit.
func (c *Cache) Access(line int64) bool {
	if line < 0 {
		panic("cachesim: negative line ID")
	}
	c.stats.Accesses++
	set := c.setOf(line)
	base := set * int64(c.ways)
	for w := int64(0); w < int64(c.ways); w++ {
		i := base + w
		if c.tags[i] == line {
			c.stats.Hits++
			c.reused[i] = true
			c.touch(set, int32(w))
			return true
		}
	}
	c.stats.Misses++
	if _, ok := c.seen[line]; !ok {
		c.seen[line] = struct{}{}
		c.stats.Compulsory++
	}
	victim := c.victim(set, base)
	if c.tags[victim] != -1 {
		c.stats.Evictions++
		if !c.reused[victim] {
			c.stats.DeadFills++
		}
	}
	c.tags[victim] = line
	c.reused[victim] = false
	c.touch(set, int32(victim-base))
	return false
}

// touch updates policy metadata on a hit or fill.
func (c *Cache) touch(set int64, way int32) {
	switch c.policy {
	case PolicyPLRU:
		// Flip tree bits along the path to `way` so they point away.
		bits := c.plru[set]
		node := int32(1)
		for span := c.ways; span > 1; span /= 2 {
			half := span / 2
			goRight := way%span >= half
			if goRight {
				bits &^= 1 << uint(node-1) // point left
				node = 2*node + 1
			} else {
				bits |= 1 << uint(node-1) // point right
				node = 2 * node
			}
		}
		c.plru[set] = bits
	case PolicyRandom:
		// stateless
	}
}

// victim selects the way to evict in the set; invalid ways win first.
func (c *Cache) victim(set, base int64) int64 {
	for w := int64(0); w < int64(c.ways); w++ {
		if c.tags[base+w] == -1 {
			return base + w
		}
	}
	switch c.policy {
	case PolicyPLRU:
		bits := c.plru[set]
		node := int32(1)
		way := int32(0)
		for span := c.ways; span > 1; span /= 2 {
			half := span / 2
			if bits&(1<<uint(node-1)) != 0 { // points right
				way += half
				node = 2*node + 1
			} else {
				node = 2 * node
			}
		}
		return base + int64(way)
	case PolicyRandom:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return base + int64(c.rng%uint64(c.ways))
	default:
		return base
	}
}

// Finalize folds still-resident never-reused lines into DeadFills and
// returns the final statistics.
func (c *Cache) Finalize() Stats {
	s := c.stats
	for i, tag := range c.tags {
		if tag != -1 && !c.reused[i] {
			s.DeadFills++
		}
	}
	return s
}

// Simulate runs a complete trace through a fresh cache with the policy.
func Simulate(cfg Config, policy Policy, trace func(emit func(line int64))) Stats {
	c := New(cfg, policy)
	trace(func(line int64) { c.Access(line) })
	return c.Finalize()
}
