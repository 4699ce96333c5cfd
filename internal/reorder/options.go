package reorder

import (
	"context"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sparse"
)

// Options carries cross-cutting knobs for the parallel reordering tier.
type Options struct {
	// Workers is the number of goroutines a ParallelOrderer may use.
	// Values below 1 (including the zero value) mean 1, the sequential
	// path. Workers is strictly a speed knob: every technique in this
	// package produces a byte-identical permutation at any worker count,
	// a property the worker-count determinism matrix enforces for the
	// whole registry.
	Workers int
}

// workers normalizes the knob to at least one goroutine.
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// ParallelOrderer is a technique whose ordering work can be split across
// opts.Workers goroutines. Implementations follow the OrdererCtx contract
// (nil error ⇒ valid permutation, cancellation returns ctx.Err() promptly)
// with one addition: the result must not depend on opts.Workers. The
// techniques here achieve that by splitting work along boundaries computed
// from the matrix alone and joining per-slot results in a canonical order.
type ParallelOrderer interface {
	OrdererCtx
	// OrderParallelCtx computes the old→new permutation using up to
	// opts.Workers goroutines.
	OrderParallelCtx(ctx context.Context, m *sparse.CSR, opts Options) (sparse.Permutation, error)
}

// OrderWith runs a cancellable technique with the given options:
// techniques that implement ParallelOrderer get the worker count,
// everything else runs its (single-threaded) OrderCtx. This is the
// dispatch point shared by cmd/reorder and the reorderd service; wrap a
// plain Technique with WithContext.
func OrderWith(ctx context.Context, t OrdererCtx, m *sparse.CSR, opts Options) (sparse.Permutation, error) {
	var p sparse.Permutation
	var err error
	if po, ok := t.(ParallelOrderer); ok {
		p, err = po.OrderParallelCtx(ctx, m, opts)
	} else {
		p, err = t.OrderCtx(ctx, m)
	}
	if err != nil {
		return nil, err
	}
	return check.Perm(p), nil
}

// RabbitShard is the parallel RABBIT aggregation: per-shard community
// detection (stable shard boundaries from community.Shards) followed by a
// sequential coarse merge of the shard-local communities. At Workers=1 it
// still runs the two-level sharded algorithm — the permutation differs
// from plain RABBIT's single global merge loop, which is why it is a
// separate registered technique rather than a mode of Rabbit.
type RabbitShard struct{}

// Name implements Technique.
func (RabbitShard) Name() string { return "RABBIT-SHARD" }

// Order implements Technique (the Workers=1 path).
func (RabbitShard) Order(m *sparse.CSR) sparse.Permutation {
	return check.Perm(core.RabbitSharded(m, 1).Perm)
}

// OrderCtx implements OrdererCtx via core.RabbitShardedCtx's cancellable
// merge loops.
func (RabbitShard) OrderCtx(ctx context.Context, m *sparse.CSR) (sparse.Permutation, error) {
	rr, err := core.RabbitShardedCtx(ctx, m, 1)
	if err != nil {
		return nil, err
	}
	return check.Perm(rr.Perm), nil
}

// OrderParallelCtx implements ParallelOrderer.
func (RabbitShard) OrderParallelCtx(ctx context.Context, m *sparse.CSR, opts Options) (sparse.Permutation, error) {
	rr, err := core.RabbitShardedCtx(ctx, m, opts.workers())
	if err != nil {
		return nil, err
	}
	return check.Perm(rr.Perm), nil
}
