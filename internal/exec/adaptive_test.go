package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/plan"
)

// fanProgram builds source → c0..c(n-1), every child an output running
// childFn. childSig selects the children's operator signature: tests that
// need per-op correction evidence give every child the same signature
// (identical operators), tests that need distinct artifacts vary it.
func fanProgram(n int, sharedSig bool, srcFn OpFunc, childFn func(i int) OpFunc) *Program {
	d := core.NewDAG()
	src := d.MustAddNode("source", core.KindSource, core.DPR, "fan-src-v1", true)
	fns := map[*core.Node]OpFunc{src: srcFn}
	for i := 0; i < n; i++ {
		sig := "fan-child-v1"
		if !sharedSig {
			sig = fmt.Sprintf("fan-child-%d-v1", i)
		}
		c := d.MustAddNode(fmt.Sprintf("c%d", i), core.KindExtractor, core.PPR, sig, true)
		mustEdge(d, src, c)
		d.MarkOutput(c)
		fns[c] = childFn(i)
	}
	return &Program{DAG: d, Fns: fns}
}

// adaptiveEventLog collects a run's events; the engine delivers serially
// but from worker goroutines.
type adaptiveEventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *adaptiveEventLog) observe(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *adaptiveEventLog) replans() (evs []ReplanEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if re, ok := ev.(ReplanEvent); ok {
			evs = append(evs, re)
		}
	}
	return evs
}

func (l *adaptiveEventLog) runStats(t *testing.T) RunStatsEvent {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if rs, ok := ev.(RunStatsEvent); ok {
			return rs
		}
	}
	t.Fatal("no RunStatsEvent in stream")
	return RunStatsEvent{}
}

// TestAdaptiveReplansStayUnderSolveBudget is the solve-bounding
// acceptance test: under a stable cost skew the monitor triggers more
// re-plan attempts than the solve budget allows, but only the first
// attempt actually moves estimates — the rest are idempotent (the same
// correction factors recompute the same values, the idempotence gate
// skips the writes, and no solve is spent). Re-plan attempts exceed the
// bound; solves stay within it; the one solving re-plan is a cold solve
// (its corrections change the fingerprint).
func TestAdaptiveReplansStayUnderSolveBudget(t *testing.T) {
	const (
		fan     = 8
		skew    = 80 * time.Millisecond // actual child cost
		carried = 2 * time.Millisecond  // what the previous iteration claims
	)
	// A hand-built previous iteration pins the carried estimates exactly:
	// identical baseC across children keeps the correction factor stable
	// between attempts, which is what makes repeat attempts idempotent.
	prev := fanProgram(fan, true,
		func(ctx context.Context, in []any) (any, error) { return 0, nil },
		func(i int) OpFunc {
			return func(ctx context.Context, in []any) (any, error) { return i, nil }
		}).DAG
	prev.ComputeSignatures()
	for _, n := range prev.Nodes() {
		n.Metrics.Compute = carried
		n.Metrics.Known = true
	}

	var childRuns atomic.Int32
	prog := fanProgram(fan, true,
		func(ctx context.Context, in []any) (any, error) {
			time.Sleep(carried)
			return 0, nil
		},
		func(i int) OpFunc {
			return func(ctx context.Context, in []any) (any, error) {
				childRuns.Add(1)
				time.Sleep(skew)
				return i, nil
			}
		})

	e := newEngine(t)
	e.Cache = plan.NewCache("adaptive-test")
	var log adaptiveEventLog
	opts := e.Opts
	// Three workers: when the first child completes and triggers the
	// solving re-plan, two siblings are already running with stale
	// projections — their completions re-trigger the monitor, exercising
	// the idempotent (free) path.
	opts.Parallelism = 3
	opts.Plan.DisableReuse = true // all-compute run: corrections only, no swaps
	opts.AdaptiveThreshold = 0.5
	opts.AdaptiveMaxSolves = 2
	opts.Observer = log.observe

	res, err := e.RunWith(context.Background(), prog, prev, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if childRuns.Load() != fan {
		t.Fatalf("reuse disabled, yet only %d/%d children computed", childRuns.Load(), fan)
	}
	for i := 0; i < fan; i++ {
		if got := res.Values[fmt.Sprintf("c%d", i)]; got != i {
			t.Fatalf("c%d = %v, want %d", i, got, i)
		}
	}

	replans := log.replans()
	rs := log.runStats(t)
	if rs.Replans < 3 {
		t.Fatalf("replans = %d, want at least 3 (one solving + stale-projection re-triggers)", rs.Replans)
	}
	if rs.Replans <= opts.AdaptiveMaxSolves {
		t.Fatalf("replans = %d must exceed the solve bound %d for this test to prove bounding", rs.Replans, opts.AdaptiveMaxSolves)
	}
	// Total solves: 1 for the cold initial plan + at most the adaptive
	// budget. With a stable skew exactly one re-plan should solve.
	if rs.Solves > 1+opts.AdaptiveMaxSolves {
		t.Fatalf("total solves = %d, want ≤ %d", rs.Solves, 1+opts.AdaptiveMaxSolves)
	}
	if rs.Solves != 2 {
		t.Fatalf("total solves = %d, want 2 (initial + one solving re-plan)", rs.Solves)
	}
	solving, idempotent := 0, 0
	for _, re := range replans {
		if re.Corrected > 0 {
			solving++
			if !re.Planned {
				t.Fatalf("re-plan corrected %d estimates but did not plan: %+v", re.Corrected, re)
			}
			// The corrections change the fingerprint the run's own plan
			// was cached under, so the re-plan solves cold.
			if re.Outcome != plan.CacheCold {
				t.Fatalf("solving re-plan outcome = %v, want CacheCold", re.Outcome)
			}
		} else {
			idempotent++
		}
	}
	if solving != 1 {
		t.Fatalf("%d solving re-plans, want exactly 1 under a stable skew", solving)
	}
	if idempotent < 2 {
		t.Fatalf("%d idempotent re-plans, want at least 2", idempotent)
	}
}

// TestAdaptiveSwapsComputeToLoad is the end-to-end mid-run adaptation
// scenario: iteration 0 materializes every child cheaply, so iteration
// 1's carried estimates say computing is cheaper than loading — but the
// operators have become slow. The divergence monitor corrects the
// frontier from the first measured completions, the re-solve flips the
// unstarted children to loads, and the run finishes by loading instead
// of recomputing, with identical outputs. Both runs are on model time:
// operators sleep on the run's clock, which moves by exactly what they
// sleep, so no host delay decides what was measured.
func TestAdaptiveSwapsComputeToLoad(t *testing.T) {
	const (
		fan  = 10
		fast = 50 * time.Microsecond
		slow = 50 * time.Millisecond
	)
	child := func(runs *atomic.Int32, delay time.Duration) func(i int) OpFunc {
		return func(i int) OpFunc {
			return func(ctx context.Context, in []any) (any, error) {
				if runs != nil {
					runs.Add(1)
				}
				clock.From(ctx).Sleep(delay)
				return i * 10, nil
			}
		}
	}
	fastSrc := func(ctx context.Context, in []any) (any, error) {
		clock.From(ctx).Sleep(fast)
		return 0, nil
	}

	e := newEngine(t)
	e.Cache = plan.NewCache("adaptive-swap-test")
	ctx := clock.With(context.Background(), new(clock.Model))

	// Iteration 0: everything computes quickly and materializes.
	prog0 := fanProgram(fan, false, fastSrc, child(nil, fast))
	if _, err := e.Run(ctx, prog0, nil, 0); err != nil {
		t.Fatal(err)
	}

	// Iteration 1: same workflow, operators now 3 orders slower than the
	// carried estimates claim.
	var slowRuns atomic.Int32
	prog1 := fanProgram(fan, false, fastSrc, child(&slowRuns, slow))
	var log adaptiveEventLog
	opts := e.Opts
	opts.Parallelism = 2
	opts.AdaptiveThreshold = 0.5
	opts.Observer = log.observe
	res, err := e.RunWith(ctx, prog1, prog0.DAG, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fan; i++ {
		if got := res.Values[fmt.Sprintf("c%d", i)]; got != i*10 {
			t.Fatalf("c%d = %v, want %d", i, got, i*10)
		}
	}

	rs := log.runStats(t)
	if rs.Replans < 1 {
		t.Fatal("divergence never triggered a re-plan")
	}
	if rs.Swapped < fan/2 {
		t.Fatalf("swapped %d children to loads, want at least %d", rs.Swapped, fan/2)
	}
	// At most the children already claimed when the monitor tripped (two
	// workers' worth, plus scheduling slack) actually computed.
	if n := slowRuns.Load(); n > fan/2 {
		t.Fatalf("%d/%d slow children computed; adaptation should have loaded most", n, fan)
	}
	// Result.Plan reflects the adopted swaps: load rows with the adaptive
	// rationale, and counts matching the swap tally.
	loads, rationed := 0, 0
	for _, np := range res.Plan.Nodes {
		if np.State == core.StateLoad {
			loads++
			if strings.Contains(np.Rationale, "adaptive") {
				rationed++
			}
		}
	}
	if rationed != rs.Swapped {
		t.Fatalf("%d plan rows carry the adaptive rationale, run stats swapped %d", rationed, rs.Swapped)
	}
	if res.Plan.Counts[core.StateLoad] != loads {
		t.Fatalf("plan counts %d loads, rows show %d", res.Plan.Counts[core.StateLoad], loads)
	}
	if rs.Solves > 1+defaultAdaptiveMaxSolves {
		t.Fatalf("total solves = %d, exceeded default budget %d", rs.Solves, 1+defaultAdaptiveMaxSolves)
	}
}

// TestAdaptiveDisabledEmitsNothing pins the off-by-default contract: with
// a zero threshold no ReplanEvent ever appears and run stats report zero
// re-plans, even under the same cost skew.
func TestAdaptiveDisabledEmitsNothing(t *testing.T) {
	prev := fanProgram(3, true,
		func(ctx context.Context, in []any) (any, error) { return 0, nil },
		func(i int) OpFunc {
			return func(ctx context.Context, in []any) (any, error) { return i, nil }
		}).DAG
	prev.ComputeSignatures()
	for _, n := range prev.Nodes() {
		n.Metrics.Compute = time.Millisecond
		n.Metrics.Known = true
	}
	prog := fanProgram(3, true,
		func(ctx context.Context, in []any) (any, error) { return 0, nil },
		func(i int) OpFunc {
			return func(ctx context.Context, in []any) (any, error) {
				time.Sleep(30 * time.Millisecond)
				return i, nil
			}
		})
	e := newEngine(t)
	var log adaptiveEventLog
	opts := e.Opts
	opts.Plan.DisableReuse = true
	opts.Observer = log.observe
	if _, err := e.RunWith(context.Background(), prog, prev, 1, opts); err != nil {
		t.Fatal(err)
	}
	if n := len(log.replans()); n != 0 {
		t.Fatalf("adaptive off, yet %d ReplanEvents emitted", n)
	}
	if rs := log.runStats(t); rs.Replans != 0 || rs.Swapped != 0 {
		t.Fatalf("adaptive off, yet run stats %+v", rs)
	}
}
