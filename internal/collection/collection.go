// Package collection is HELIX-Go's dataflow substrate, standing in for
// Spark in the original system (paper §2.1). It provides partitioned
// in-memory collections with data-parallel Map / FlatMap / Distinct
// operators executed by a configurable number of workers.
//
// The worker count models cluster size for the scaling experiments
// (paper Figure 7b); an optional per-operation barrier overhead models the
// synchronization/communication cost that grows with cluster size and
// produces the paper's observed PPR slowdown at 8 workers.
package collection

import (
	"sync"
	"time"

	"helix/internal/clock"
)

// Env configures the execution environment of a collection, standing in
// for the Spark cluster configuration.
type Env struct {
	// Workers is the degree of parallelism (≥1). Models executors.
	Workers int
	// BarrierOverhead is charged once per parallel operation per worker,
	// modeling the scheduling + shuffle communication cost of a cluster.
	// Zero for single-node runs.
	BarrierOverhead time.Duration

	// clock is what the barrier sleeps on; nil is the host's clock.
	clock clock.Clock
}

// On returns a copy of e whose barrier overhead is slept on c — the clock
// of the run the operator executes in (clock.From of its context). An
// environment with no overhead has nothing to sleep and is returned as is.
func (e *Env) On(c clock.Clock) *Env {
	if e == nil || e.BarrierOverhead <= 0 {
		return e
	}
	cp := *e
	cp.clock = c
	return &cp
}

// DefaultEnv is a single-node environment with 4 workers and no simulated
// communication overhead.
func DefaultEnv() *Env { return &Env{Workers: 4} }

// normalize clamps invalid configurations.
func (e *Env) normalize() (workers int) {
	if e == nil || e.Workers < 1 {
		return 1
	}
	return e.Workers
}

// barrier simulates the per-operation synchronization cost of a cluster.
func (e *Env) barrier() {
	if e == nil || e.BarrierOverhead <= 0 {
		return
	}
	c := e.clock
	if c == nil {
		c = clock.Real{}
	}
	c.Sleep(e.BarrierOverhead * time.Duration(e.normalize()))
}

// Collection is an immutable, partitioned dataset of T — the physical
// representation behind a HELIX data collection (DC).
type Collection[T any] struct {
	env   *Env
	parts [][]T
}

// New builds a collection from a slice, splitting it into one partition per
// worker. The input slice is not copied; callers must not mutate it.
func New[T any](env *Env, data []T) *Collection[T] {
	w := env.normalize()
	parts := make([][]T, 0, w)
	n := len(data)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		parts = append(parts, data[lo:hi])
	}
	return &Collection[T]{env: env, parts: parts}
}

// Len returns the total number of elements.
func (c *Collection[T]) Len() int {
	n := 0
	for _, p := range c.parts {
		n += len(p)
	}
	return n
}

// Collect gathers all elements into a single slice in partition order.
func (c *Collection[T]) Collect() []T {
	out := make([]T, 0, c.Len())
	for _, p := range c.parts {
		out = append(out, p...)
	}
	return out
}

// forEachPartition runs f over partitions on the env's workers.
func forEachPartition[T any](c *Collection[T], f func(pi int, part []T)) {
	c.env.barrier()
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.env.normalize())
	for pi, part := range c.parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(pi int, part []T) {
			defer wg.Done()
			defer func() { <-sem }()
			f(pi, part)
		}(pi, part)
	}
	wg.Wait()
}

// Map applies f to every element in parallel.
func Map[T, U any](c *Collection[T], f func(T) U) *Collection[U] {
	out := make([][]U, len(c.parts))
	forEachPartition(c, func(pi int, part []T) {
		res := make([]U, len(part))
		for i, v := range part {
			res[i] = f(v)
		}
		out[pi] = res
	})
	return &Collection[U]{env: c.env, parts: out}
}

// FlatMap applies f to every element and concatenates the results — the
// Scanner semantics of the paper (§3.2.2: "acts like a flatMap ... can also
// be used to perform filtering").
func FlatMap[T, U any](c *Collection[T], f func(T) []U) *Collection[U] {
	out := make([][]U, len(c.parts))
	forEachPartition(c, func(pi int, part []T) {
		var res []U
		for _, v := range part {
			res = append(res, f(v)...)
		}
		out[pi] = res
	})
	return &Collection[U]{env: c.env, parts: out}
}
