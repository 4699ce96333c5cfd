package cachesim

// SimulateBelady runs a recorded line-granular trace through a
// set-associative cache with Belady's optimal replacement policy: on a
// miss in a full set, the resident line whose next use is furthest in the
// future is evicted. Belady's policy is an oracle — it needs the whole
// trace up front — and bounds the DRAM traffic any real replacement policy
// could achieve (Figure 8).
//
// This is the reference implementation (a flat trace, a same-length
// next-use array, and a Go map of last-seen indices); the hot paths use
// the chunked streaming equivalent SimulateBeladyTrace, which produces
// bit-identical Stats. Deterministic: the victim scan is by way index with
// exact next-use comparison, so the same trace always yields the same
// Stats.
func SimulateBelady(cfg Config, trace []int64) Stats {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	setOf := cfg.setIndexer()
	ways := int64(cfg.Ways)

	// nextUse[i] is the index of the next access to trace[i]'s line, or
	// len(trace) when there is none. Built with a backward scan.
	const never = int64(1) << 62
	nextUse := make([]int64, len(trace))
	last := make(map[int64]int64, 1<<16)
	for i := len(trace) - 1; i >= 0; i-- {
		line := trace[i]
		if j, ok := last[line]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = never
		}
		last[line] = int64(i)
	}

	tags := make([]int64, sets*ways)
	next := make([]int64, sets*ways) // next use of the resident line
	reused := make([]bool, sets*ways)
	for i := range tags {
		tags[i] = -1
	}
	seen := make(map[int64]struct{}, len(last))
	stats := Stats{LineBytes: cfg.LineBytes}

	for i, line := range trace {
		if line < 0 {
			panic("cachesim: negative line ID")
		}
		stats.Accesses++
		set := setOf(line)
		base := set * ways
		hit := false
		var victim, victimNext int64 = base, -1
		for w := int64(0); w < ways; w++ {
			k := base + w
			if tags[k] == line {
				hit = true
				next[k] = nextUse[i]
				reused[k] = true
				break
			}
			if tags[k] == -1 {
				// Prefer filling an invalid way; mark it as the victim with
				// maximal priority.
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
		if _, ok := seen[line]; !ok {
			seen[line] = struct{}{}
			stats.Compulsory++
		}
		if tags[victim] != -1 {
			stats.Evictions++
			if !reused[victim] {
				stats.DeadFills++
			}
		}
		tags[victim] = line
		next[victim] = nextUse[i]
		reused[victim] = false
	}
	for k, tag := range tags {
		if tag != -1 && !reused[k] {
			stats.DeadFills++
		}
	}
	assertCoherent(stats)
	return stats
}

// RecordTrace materializes a streaming trace into a flat slice for the
// reference Belady simulation. The slice grows by append doubling, so it
// transiently holds up to 2× the final recording; the streaming path
// (RecordTraceChunked) never copies recorded data.
func RecordTrace(trace func(emit func(line int64))) []int64 {
	var out []int64
	trace(func(line int64) { out = append(out, line) })
	return out
}
