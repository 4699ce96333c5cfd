// Package reorder provides the matrix reordering techniques the paper
// characterizes (Section IV-A): ORIGINAL, RANDOM, DEGSORT, DBG, GORDER,
// and adapters for the community-based RABBIT and RABBIT++ implemented in
// internal/core, plus RCM and SLASHBURN as additional baselines from the
// related-work space.
//
// A parallel tier (BOBA, RCM++, RABBIT-SHARD) accepts a Workers count via
// Options and the ParallelOrderer interface; every technique — parallel or
// not — produces a byte-identical permutation at any worker count.
//
// Every technique consumes a square CSR matrix and produces a permutation
// mapping old IDs to new IDs; applying it with CSR.PermuteSymmetric
// preserves kernel semantics exactly (a property the test suites verify).
//
//repro:deterministic
package reorder

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sparse"
)

// Technique is a matrix reordering algorithm.
type Technique interface {
	// Name returns the technique's display name as used in the paper's
	// figures.
	Name() string
	// Order computes the old→new permutation for the matrix.
	Order(m *sparse.CSR) sparse.Permutation
}

// Original returns the matrix's published ordering unchanged — the
// ill-defined baseline of Observation 3.
type Original struct{}

// Name implements Technique.
func (Original) Name() string { return "ORIGINAL" }

// Order implements Technique.
func (Original) Order(m *sparse.CSR) sparse.Permutation {
	return check.Perm(sparse.Identity(m.NumRows))
}

// Random assigns IDs uniformly at random (deterministically in Seed) — the
// structure-destroying lower bound.
type Random struct {
	Seed uint64
}

// Name implements Technique.
func (Random) Name() string { return "RANDOM" }

// Order implements Technique.
func (r Random) Order(m *sparse.CSR) sparse.Permutation {
	// Fisher-Yates with a local splitmix64-style generator; math/rand's
	// global state is never used in this repository.
	p := sparse.Identity(m.NumRows)
	x := r.Seed + 0x9e3779b97f4a7c15
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return check.Perm(p)
}

// DegSort assigns IDs in decreasing order of in-degree (stable in the
// original IDs), packing the most-referenced rows of the input vector into
// the fewest cache lines.
type DegSort struct{}

// Name implements Technique.
func (DegSort) Name() string { return "DEGSORT" }

// Order implements Technique.
func (DegSort) Order(m *sparse.CSR) sparse.Permutation {
	inDeg := m.InDegrees()
	order := make([]int32, m.NumRows)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return inDeg[order[a]] > inDeg[order[b]] })
	return check.Perm(sparse.FromNewOrder(order))
}

// Rabbit adapts internal/core's community-based reordering.
type Rabbit struct{}

// Name implements Technique.
func (Rabbit) Name() string { return "RABBIT" }

// Order implements Technique.
func (Rabbit) Order(m *sparse.CSR) sparse.Permutation {
	return check.Perm(core.Rabbit(m).Perm)
}

// RabbitPP adapts RABBIT++, the paper's proposal: RABBIT plus insular-node
// grouping plus hub grouping.
type RabbitPP struct{}

// Name implements Technique.
func (RabbitPP) Name() string { return "RABBIT++" }

// Order implements Technique.
func (RabbitPP) Order(m *sparse.CSR) sparse.Permutation {
	return check.Perm(core.RabbitPlusPlus(m).Perm)
}

// RabbitVariant exposes an arbitrary point of the Table II design space as
// a Technique.
type RabbitVariant struct {
	Opts core.Options
}

// Name implements Technique.
func (v RabbitVariant) Name() string {
	name := v.Opts.Hub.String()
	if v.Opts.GroupInsular {
		name += "+INS"
	}
	return name
}

// Order implements Technique.
func (v RabbitVariant) Order(m *sparse.CSR) sparse.Permutation {
	return check.Perm(core.Reorder(m, v.Opts).Perm)
}

// FromRabbit reports whether t's ordering is a function of plain RABBIT's
// detection — RABBIT, RABBIT++ and the Table II variants — and if so
// returns how to derive it from a detection rr of m. Callers that already
// hold a detection (the experiment runner's per-matrix cache, reorderd's
// quality step) use it to detect once where they would otherwise detect
// twice. RABBIT-SHARD and the combinators return false: their detection is
// not plain RABBIT's.
func FromRabbit(t any) (derive func(m *sparse.CSR, rr *core.RabbitResult) sparse.Permutation, ok bool) {
	var opts core.Options
	switch t := t.(type) {
	case Rabbit:
		return func(_ *sparse.CSR, rr *core.RabbitResult) sparse.Permutation { return check.Perm(rr.Perm) }, true
	case RabbitPP:
		opts = core.PlusPlusOptions()
	case RabbitVariant:
		opts = t.Opts
	default:
		return nil, false
	}
	return func(m *sparse.CSR, rr *core.RabbitResult) sparse.Permutation {
		return check.Perm(core.ModifyRabbit(m, rr, opts).Perm)
	}, true
}

// ByName resolves a technique from its display name. Reordering seeds and
// parameters use their experiment defaults.
func ByName(name string) (Technique, error) {
	for _, t := range All() {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("reorder: unknown technique %q", name)
}

// All returns the techniques in the order the paper's Figure 2 presents
// them, followed by the extra baselines this repository adds.
func All() []Technique {
	return []Technique{
		Random{Seed: 0xC0FFEE},
		Original{},
		DegSort{},
		DBG{},
		Gorder{Window: 5},
		Rabbit{},
		RabbitPP{},
		RCM{},
		HubSort{},
		HubGroup{},
		SlashBurn{K: 64},
		PartitionOrder{},
		LouvainOrder{},
		FrequencyClustering{},
		HubCluster{},
		Boba{},
		RCMPP{},
		RabbitShard{},
	}
}

// Figure2 returns the six orderings of Figure 2, in presentation order.
func Figure2() []Technique {
	return []Technique{
		Random{Seed: 0xC0FFEE},
		Original{},
		DegSort{},
		DBG{},
		Gorder{Window: 5},
		Rabbit{},
	}
}
