// Package clock is the one seam between HELIX-Go's timing sites and the
// time they read. The engine, the store, the dataflow substrate and the
// workloads that model their cost by sleeping take every Now, Since and
// Sleep from a Clock instead of the time package, so the same code runs
// on the host's clock (Real, the default) or on a clock that moves only
// when something is billed (Model) — which is how internal/sim reproduces
// the paper's figures as exact, host-independent model time.
//
// A run's clock travels on its context (With / From). The engine resolves
// it once per run; operators that model a cost by sleeping resolve it from
// the context they are handed.
package clock

import (
	"context"
	"sync/atomic"
	"time"
)

// Clock is what a timing site reads and sleeps on.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	Sleep(d time.Duration)
}

// Real is the host's clock. Its zero value is ready to use.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Since returns time.Since(t).
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep calls time.Sleep(d).
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Model is a clock that moves only when slept on: Sleep advances it by
// exactly d and returns at once, and nothing else moves it. Its zero value
// reads the zero time.Time. Safe for concurrent use; what concurrent
// sleepers add up to is their sum, in whatever order they land.
type Model struct {
	elapsed atomic.Int64
}

// Now returns the zero time plus everything slept so far.
func (m *Model) Now() time.Time { return time.Time{}.Add(m.Elapsed()) }

// Since returns how far the clock has moved past t.
func (m *Model) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Sleep advances the clock by d; a non-positive d is a no-op, as for
// time.Sleep.
func (m *Model) Sleep(d time.Duration) {
	if d > 0 {
		m.elapsed.Add(int64(d))
	}
}

// Elapsed returns everything slept on the clock so far.
func (m *Model) Elapsed() time.Duration { return time.Duration(m.elapsed.Load()) }

type ctxKey struct{}

// With returns a context carrying c as the clock of whatever runs under it.
func With(ctx context.Context, c Clock) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// From returns the clock ctx carries, or Real when it carries none.
func From(ctx context.Context) Clock {
	if c, ok := ctx.Value(ctxKey{}).(Clock); ok {
		return c
	}
	return Real{}
}
