package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// runSched executes prog on a fresh engine under the given scheduler mode
// and returns the Result.
func runSched(t *testing.T, prog *Program, mode SchedMode, par int) *Result {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{
		Policy:      opt.NeverMat{},
		Parallelism: par,
		Sched:       mode,
	}}
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSchedulerCriticalPathMatchesFIFO: on the 1000-node stress DAGs at
// Parallelism 4, critical-path ordering must produce Results identical to
// the FIFO baseline — same output values, same per-node states — and the
// goroutine bounds from the bounded-scheduler work still hold (covered by
// the existing bound tests, which run under the default critical-path
// mode). Run with -race in CI.
func TestSchedulerCriticalPathMatchesFIFO(t *testing.T) {
	const n, par = 1000, 4
	cases := []struct {
		name  string
		build func() *Program
	}{
		{"deep-chain", func() *Program { return deepChainProgram(n) }},
		{"wide-fanout", func() *Program { return fanoutProgram(n) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fifo := runSched(t, tc.build(), SchedFIFO, par)
			crit := runSched(t, tc.build(), SchedCriticalPath, par)
			if len(fifo.Values) != len(crit.Values) {
				t.Fatalf("output count differs: fifo %d, critpath %d", len(fifo.Values), len(crit.Values))
			}
			for name, want := range fifo.Values {
				if got := crit.Values[name]; got != want {
					t.Fatalf("output %s: critpath %v, fifo %v", name, got, want)
				}
			}
			if len(fifo.Nodes) != len(crit.Nodes) {
				t.Fatalf("node report count differs")
			}
			for name, fr := range fifo.Nodes {
				cr, ok := crit.Nodes[name]
				if !ok || cr.State != fr.State {
					t.Fatalf("node %s: critpath state %v, fifo %v", name, cr.State, fr.State)
				}
			}
			for s, c := range fifo.StateCounts {
				if crit.StateCounts[s] != c {
					t.Fatalf("state count %v: critpath %d, fifo %d", s, crit.StateCounts[s], c)
				}
			}
		})
	}
}

// TestSchedulerCriticalPathOrdersByProjectedTail pins the ordering
// itself: with one worker, execution order equals pop order. A fan-out of
// branches with seeded projected times must run longest-tail-first under
// SchedCriticalPath and in arrival order under SchedFIFO.
func TestSchedulerCriticalPathOrdersByProjectedTail(t *testing.T) {
	// src → b0..b3, with projected compute times 1s, 4s, 2s, 8s.
	secs := []float64{1, 4, 2, 8}
	build := func() (*Program, *[]string, *sync.Mutex) {
		d := core.NewDAG()
		prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc)}
		var mu sync.Mutex
		order := &[]string{}
		src := d.MustAddNode("src", core.KindSource, core.DPR, "src-v1", true)
		prog.Fns[src] = func(ctx context.Context, in []any) (any, error) { return 1, nil }
		sink := d.MustAddNode("sink", core.KindReducer, core.PPR, "sink-v1", true)
		for i, s := range secs {
			name := fmt.Sprintf("b%d", i)
			n := d.MustAddNode(name, core.KindExtractor, core.DPR, name+"-v1", true)
			mustEdge(d, src, n)
			mustEdge(d, n, sink)
			n.Metrics = core.Metrics{Compute: time.Duration(s * float64(time.Second)), Known: true}
			prog.Fns[n] = func(ctx context.Context, in []any) (any, error) {
				mu.Lock()
				*order = append(*order, name)
				mu.Unlock()
				return 1, nil
			}
		}
		prog.Fns[sink] = func(ctx context.Context, in []any) (any, error) { return len(in), nil }
		d.MarkOutput(sink)
		return prog, order, &mu
	}

	prog, order, _ := build()
	runSched(t, prog, SchedCriticalPath, 1)
	want := []string{"b3", "b1", "b2", "b0"} // descending projected tail
	if fmt.Sprint(*order) != fmt.Sprint(want) {
		t.Fatalf("critpath order %v, want %v", *order, want)
	}

	prog, order, _ = build()
	runSched(t, prog, SchedFIFO, 1)
	want = []string{"b0", "b1", "b2", "b3"} // arrival (declaration) order
	if fmt.Sprint(*order) != fmt.Sprint(want) {
		t.Fatalf("fifo order %v, want %v", *order, want)
	}
}

// TestPlanCacheInvalidatedByStorePurge: at engine level, a steady-state
// cache hit must stop hitting the moment the store evicts the
// materializations the cached plan's Load decisions rest on — the
// fingerprint re-reads the store view on every call.
func TestPlanCacheInvalidatedByStorePurge(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, -1)
	e.Cache = plan.NewCache("test")
	ctx := context.Background()

	prog := deepChainProgram(50)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Seed carried statistics so reuse is the optimal plan (the paper's
	// regime: operators cost seconds, loads are cheap).
	for _, n := range prog.DAG.Nodes() {
		n.Metrics.Compute = time.Second
		n.Metrics.Known = true
	}
	prog2 := deepChainProgram(50)
	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.StateCounts[core.StateCompute] != 0 {
		t.Fatalf("identical rerun computed %d nodes", res.StateCounts[core.StateCompute])
	}

	// Settled: the next identical plan is a full hit with zero solves.
	solves := opt.SolveCount()
	prog3 := deepChainProgram(50)
	p, err := e.Plan(prog3.DAG, prog2.DAG, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache != plan.CacheHit {
		t.Fatalf("settled plan outcome %v, want hit", p.Cache)
	}
	if d := opt.SolveCount() - solves; d != 0 {
		t.Fatalf("settled plan performed %d solves", d)
	}

	// Purge everything: the cached Load decisions are now stale and must
	// not be reused.
	if err := e.Store.Purge(func(string, store.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	solves = opt.SolveCount()
	prog4 := deepChainProgram(50)
	p2, err := e.Plan(prog4.DAG, prog3.DAG, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cache == plan.CacheHit {
		t.Fatal("plan cache hit survived a store purge")
	}
	if d := opt.SolveCount() - solves; d == 0 {
		t.Fatal("post-purge plan performed no solve")
	}
	for _, np := range p2.Nodes {
		if np.State == core.StateLoad {
			t.Fatalf("node %s still planned to load a purged materialization", np.Node.Name)
		}
	}
}
