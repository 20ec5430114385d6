package exec

import (
	"context"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/plan"
	"helix/internal/store"
)

// TestEmitterNilCostsNothing pins the no-observer contract: with no
// observer installed the emitter is nil, every emit helper returns
// before constructing an event, and the instrumented hot paths allocate
// nothing.
func TestEmitterNilCostsNothing(t *testing.T) {
	em := newEmitter(nil, 3)
	if em != nil {
		t.Fatal("newEmitter(nil) must return a nil emitter")
	}
	p := &planStub
	if allocs := testing.AllocsPerRun(100, func() {
		em.plan(p, time.Millisecond)
		em.node("n", NodeStarted, core.StateCompute, 0, false, 0, nil, false)
		em.node("n", NodeRetired, core.StateCompute, 0.5, true, 128, nil, true)
		em.flush(time.Millisecond)
		em.done(time.Second, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("nil emitter allocated %.1f times per run, want 0", allocs)
	}
}

// TestEngineEventOrdering: at the engine level, a run's stream is plan
// first, then node lifecycle, then flush, then run stats, then done —
// and a failed run's stream has no done event.
func TestEngineEventOrdering(t *testing.T) {
	e := newEngine(t)
	var events []Event
	e.Opts.Observer = func(ev Event) { events = append(events, ev) }
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(context.Background(), prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(events) < 5 {
		t.Fatalf("got %d events", len(events))
	}
	if _, ok := events[0].(PlanEvent); !ok {
		t.Fatalf("first event %T, want PlanEvent", events[0])
	}
	if _, ok := events[len(events)-3].(FlushEvent); !ok {
		t.Fatalf("antepenultimate event %T, want FlushEvent", events[len(events)-3])
	}
	rs, ok := events[len(events)-2].(RunStatsEvent)
	if !ok {
		t.Fatalf("penultimate event %T, want RunStatsEvent", events[len(events)-2])
	}
	if rs.Solves != 1 || rs.Replans != 0 || rs.Swapped != 0 {
		t.Fatalf("cold non-adaptive run stats = %+v, want 1 solve, 0 replans, 0 swaps", rs)
	}
	if _, ok := events[len(events)-1].(DoneEvent); !ok {
		t.Fatalf("last event %T, want DoneEvent", events[len(events)-1])
	}
	starts := 0
	for _, ev := range events[1 : len(events)-3] {
		ne, ok := ev.(NodeEvent)
		if !ok {
			t.Fatalf("mid-stream event %T, want NodeEvent", ev)
		}
		if ne.Phase == NodeStarted {
			starts++
		}
	}
	if starts != 4 {
		t.Fatalf("%d node starts, want 4", starts)
	}

	// A failing run ends its stream without a DoneEvent.
	events = nil
	bad := failingProgram()
	if _, err := e.Run(context.Background(), bad, nil, 1); err == nil {
		t.Fatal("expected failure")
	}
	for _, ev := range events {
		if _, ok := ev.(DoneEvent); ok {
			t.Fatal("failed run emitted DoneEvent")
		}
	}
}

// failingProgram is a two-node chain whose second operator errors.
func failingProgram() *Program {
	d := core.NewDAG()
	src := d.MustAddNode("fsource", core.KindSource, core.DPR, "fsrc-v1", true)
	bad := d.MustAddNode("fbad", core.KindReducer, core.PPR, "fbad-v1", true)
	mustEdge(d, src, bad)
	d.MarkOutput(bad)
	return &Program{
		DAG: d,
		Fns: map[*core.Node]OpFunc{
			src: func(ctx context.Context, in []any) (any, error) { return 1, nil },
			bad: func(ctx context.Context, in []any) (any, error) {
				return nil, context.DeadlineExceeded
			},
		},
	}
}

// planStub gives the nil-emitter alloc test a *plan.Plan argument with
// just the fields the emit path would read populated.
var planStub = plan.Plan{Counts: map[core.State]int{core.StateCompute: 1}}

// BenchmarkRunNoObserver / BenchmarkRunObserver guard the acceptance
// requirement that events add no measurable wall-clock cost when no
// observer is installed: compare the two series over time. The workload
// is a steady-state reuse iteration (the hot case the event system must
// not tax).
func BenchmarkRunNoObserver(b *testing.B) { benchmarkRunEvents(b, false) }

func BenchmarkRunObserver(b *testing.B) { benchmarkRunEvents(b, true) }

func benchmarkRunEvents(b *testing.B, observed bool) {
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	e := New(st, -1)
	e.Opts.Parallelism = 4
	if observed {
		var n int
		e.Opts.Observer = func(Event) { n++ }
	}
	var c counters
	prog := testProgram(&c)
	prev := prog.DAG
	if _, err := e.Run(context.Background(), prog, nil, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := testProgram(&c)
		if _, err := e.Run(context.Background(), p, prev, i+1); err != nil {
			b.Fatal(err)
		}
		prev = p.DAG
	}
}
