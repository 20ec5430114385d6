package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

func init() {
	store.RegisterValueType([]string(nil))
	store.RegisterValueType(0)
	store.RegisterValueType(0.0)
}

// testProgram builds a 4-node chain source → extract → learn → check with
// call counters so tests can observe which operators actually ran.
//
// Operators sleep ~10ms each so that compute costs dominate the store's
// ~1ms load estimate: reuse (load + prune ancestors) is then genuinely the
// optimal plan, as in the paper's workloads where operators take seconds.
type counters struct {
	source, extract, learn, check atomic.Int32
}

// opDelay is the simulated per-operator compute cost in tests.
const opDelay = 10 * time.Millisecond

func testProgram(c *counters) *Program {
	d := core.NewDAG()
	src := d.MustAddNode("source", core.KindSource, core.DPR, "src-v1", true)
	ext := d.MustAddNode("extract", core.KindExtractor, core.DPR, "ext-v1", true)
	lrn := d.MustAddNode("learn", core.KindLearner, core.LI, "lrn-v1", true)
	chk := d.MustAddNode("check", core.KindReducer, core.PPR, "chk-v1", true)
	mustEdge(d, src, ext)
	mustEdge(d, ext, lrn)
	mustEdge(d, lrn, chk)
	d.MarkOutput(chk)
	return &Program{
		DAG: d,
		Fns: map[*core.Node]OpFunc{
			src: func(ctx context.Context, in []any) (any, error) {
				c.source.Add(1)
				time.Sleep(opDelay)
				return []string{"r1", "r2", "r3"}, nil
			},
			ext: func(ctx context.Context, in []any) (any, error) {
				c.extract.Add(1)
				time.Sleep(opDelay)
				rows := in[0].([]string)
				return len(rows), nil
			},
			lrn: func(ctx context.Context, in []any) (any, error) {
				c.learn.Add(1)
				time.Sleep(opDelay)
				return in[0].(int) * 10, nil
			},
			chk: func(ctx context.Context, in []any) (any, error) {
				c.check.Add(1)
				time.Sleep(opDelay)
				return float64(in[0].(int)) / 100.0, nil
			},
		},
	}
}

func mustEdge(d *core.DAG, from, to *core.Node) {
	if err := d.AddEdge(from, to); err != nil {
		panic(err)
	}
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, -1)
	// Pin the scheduler width so timing-sensitive assertions (component
	// breakdowns, slowdown factors) behave identically on single-CPU CI
	// runners and developer machines.
	e.Opts.Parallelism = 4
	return e
}

func TestRunComputesAllFirstIteration(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values["check"]; got != 0.3 {
		t.Fatalf("output = %v, want 0.3", got)
	}
	if c.source.Load() != 1 || c.extract.Load() != 1 || c.learn.Load() != 1 || c.check.Load() != 1 {
		t.Fatalf("operators not all run exactly once: src=%d ext=%d lrn=%d chk=%d", c.source.Load(), c.extract.Load(), c.learn.Load(), c.check.Load())
	}
	if res.StateCounts[core.StateCompute] != 4 {
		t.Fatalf("StateCounts = %v, want 4 computes", res.StateCounts)
	}
}

func TestRerunIdenticalWorkflowReuses(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	ctx := context.Background()
	res0, err := e.Run(ctx, prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the identical workflow (fresh DAG, same declarations).
	var c2 counters
	prog2 := testProgram(&c2)
	res1, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res1.Values["check"], res0.Values["check"]; got != want {
		t.Fatalf("iteration 1 output %v != iteration 0 output %v", got, want)
	}
	// Nothing changed, so nothing should be computed from scratch: the
	// output is loaded, ancestors pruned.
	if c2.source.Load()+c2.extract.Load()+c2.learn.Load()+c2.check.Load() != 0 {
		t.Fatalf("identical rerun recomputed operators: %+v", &c2)
	}
	if res1.StateCounts[core.StateCompute] != 0 {
		t.Fatalf("identical rerun has computes: %v", res1.StateCounts)
	}
}

func TestChangedOperatorRecomputesDownstreamOnly(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	ctx := context.Background()
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Change the learner (an L/I iteration): DPR should be reused.
	var c2 counters
	prog2 := testProgram(&c2)
	lrn := prog2.DAG.Node("learn")
	lrn.OpSignature = "lrn-v2"
	prog2.Fns[lrn] = func(ctx context.Context, in []any) (any, error) {
		c2.learn.Add(1)
		return in[0].(int) * 20, nil
	}
	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values["check"]; got != 0.6 {
		t.Fatalf("updated output = %v, want 0.6", got)
	}
	if c2.source.Load() != 0 {
		t.Fatal("source recomputed although unchanged and materialized downstream")
	}
	if c2.learn.Load() != 1 || c2.check.Load() != 1 {
		t.Fatalf("changed subgraph not recomputed: %+v", &c2)
	}
}

// TestTheorem1Correctness: results with reuse must equal a from-scratch
// execution after arbitrary change sequences.
func TestTheorem1Correctness(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t)
	var prev *core.DAG
	for iter := 0; iter < 5; iter++ {
		var c counters
		prog := testProgram(&c)
		factor := 10 + iter // modify the learner every iteration
		lrn := prog.DAG.Node("learn")
		lrn.OpSignature = fmt.Sprintf("lrn-v%d", iter)
		prog.Fns[lrn] = func(ctx context.Context, in []any) (any, error) {
			return in[0].(int) * factor, nil
		}
		res, err := e.Run(ctx, prog, prev, iter)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(3*factor) / 100.0
		if got := res.Values["check"]; got != want {
			t.Fatalf("iteration %d: output %v, want %v (Theorem 1 violated)", iter, got, want)
		}
		prev = prog.DAG
	}
}

func TestPruningSkipsNonContributing(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	// Add an extractor that no output depends on.
	var deadRuns atomic.Int32
	dead := prog.DAG.MustAddNode("deadExt", core.KindExtractor, core.DPR, "dead-v1", true)
	mustEdge(prog.DAG, prog.DAG.Node("source"), dead)
	prog.Fns[dead] = func(ctx context.Context, in []any) (any, error) {
		deadRuns.Add(1)
		return nil, nil
	}
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if deadRuns.Load() != 0 {
		t.Fatal("non-contributing operator executed")
	}
	if res.Nodes["deadExt"].State != core.StatePrune {
		t.Fatalf("deadExt state = %v, want Prune", res.Nodes["deadExt"].State)
	}
}

func TestDisablePruningRunsEverything(t *testing.T) {
	e := newEngine(t)
	e.Opts.Plan.DisablePruning = true
	var c counters
	prog := testProgram(&c)
	var deadRuns atomic.Int32
	dead := prog.DAG.MustAddNode("deadExt", core.KindExtractor, core.DPR, "dead-v1", true)
	mustEdge(prog.DAG, prog.DAG.Node("source"), dead)
	prog.Fns[dead] = func(ctx context.Context, in []any) (any, error) {
		deadRuns.Add(1)
		return 1, nil
	}
	if _, err := e.Run(context.Background(), prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	if deadRuns.Load() != 1 {
		t.Fatal("pruning not disabled")
	}
}

func TestNeverMatPolicyStoresOnlyNothing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.NeverMat{}, Plan: plan.Options{MaterializeOutputs: false, Streaming: true}}}
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(context.Background(), prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("NeverMat stored %d entries", st.Len())
	}
}

func TestAlwaysMatPolicyStoresEverything(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(context.Background(), prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 4 {
		t.Fatalf("AlwaysMat stored %d entries, want 4", st.Len())
	}
}

func TestDisableReuseRecomputesEverything(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	e.Opts.Plan.DisableReuse = true
	var c2 counters
	prog2 := testProgram(&c2)
	if _, err := e.Run(ctx, prog2, prog.DAG, 1); err != nil {
		t.Fatal(err)
	}
	if c2.source.Load() != 1 || c2.check.Load() != 1 {
		t.Fatalf("DisableReuse did not recompute: %+v", &c2)
	}
}

// TestLoadFailureFallsBackToRecompute: every artifact is garbage, so
// every planned load fails; the run plans again without them and
// computes the right value.
func TestLoadFailureFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored file (failure injection).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ".gob" {
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), []byte("corrupt"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var c2 counters
	prog2 := testProgram(&c2)
	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values["check"]; got != 0.3 {
		t.Fatalf("fallback produced %v, want 0.3", got)
	}
}

func TestOperatorErrorPropagates(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	lrn := prog.DAG.Node("learn")
	prog.Fns[lrn] = func(ctx context.Context, in []any) (any, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, err := e.Run(context.Background(), prog, nil, 0); err == nil {
		t.Fatal("expected operator error to propagate")
	}
}

func TestContextCancellation(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	src := prog.DAG.Node("source")
	prog.Fns[src] = func(ctx context.Context, in []any) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return []string{}, nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Run(ctx, prog, nil, 0); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestBreakdownByComponent(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	slow := prog.DAG.Node("learn")
	prog.Fns[slow] = func(ctx context.Context, in []any) (any, error) {
		time.Sleep(30 * time.Millisecond)
		return in[0].(int) * 10, nil
	}
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown[core.LI] < 25*time.Millisecond {
		t.Fatalf("L/I breakdown = %v, want ≥ 25ms", res.Breakdown[core.LI])
	}
	if res.Breakdown[core.LI] <= res.Breakdown[core.PPR] {
		t.Fatal("slow learner should dominate PPR in breakdown")
	}
}

func TestDeprecatedMaterializationsPurged(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	used0 := st.UsedBytes()
	// Change the extractor: extract/learn/check materializations deprecate.
	var c2 counters
	prog2 := testProgram(&c2)
	ext := prog2.DAG.Node("extract")
	ext.OpSignature = "ext-v2"
	if _, err := e.Run(ctx, prog2, prog.DAG, 1); err != nil {
		t.Fatal(err)
	}
	// Old deprecated entries must be gone; store holds current versions.
	for _, key := range st.Keys() {
		found := false
		for _, n := range prog2.DAG.Nodes() {
			if n.ChainSignature() == key {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("store retains deprecated entry %s", key)
		}
	}
	if used0 == 0 {
		t.Fatal("no bytes stored in iteration 0")
	}
}

func TestRunInvalidDAGFails(t *testing.T) {
	e := newEngine(t)
	prog := &Program{DAG: core.NewDAG(), Fns: map[*core.Node]OpFunc{}}
	// Empty DAG is valid; break it with a duplicate-name hack is not
	// possible through the API, so check the empty-run path instead.
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatal("empty workflow produced values")
	}
}

// TestExecuteRejectsMispairedPlan: Execute refuses, before any purge or
// node runs, a plan whose rows do not name each node of the program once —
// one planned for another compile of the same workflow, or one that lists
// a node twice.
func TestExecuteRejectsMispairedPlan(t *testing.T) {
	e := newEngine(t)
	var c counters
	prog := testProgram(&c)
	prog.DAG.ComputeSignatures()
	other := testProgram(&c)
	other.DAG.ComputeSignatures()
	p, err := e.Plan(other.DAG, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), prog, p); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("plan of another compile: err = %v, want ErrBadPlan", err)
	}

	dup, err := e.Plan(prog.DAG, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dup.Nodes[len(dup.Nodes)-1] = dup.Nodes[0]
	if _, err := e.Execute(context.Background(), prog, dup); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("plan listing a node twice: err = %v, want ErrBadPlan", err)
	}
	if n := c.source.Load() + c.extract.Load() + c.learn.Load() + c.check.Load(); n != 0 {
		t.Fatalf("%d operators ran under a refused plan", n)
	}
	if p, err = e.Plan(prog.DAG, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), prog, p); err != nil {
		t.Fatalf("the program's own plan: %v", err)
	}
}

func TestBlindPolicyStoresNondeterministic(t *testing.T) {
	// AM (blind) materializes nondeterministic outputs — the paper's
	// reason AM cannot finish MNIST; OPT-style policies skip them.
	for _, tc := range []struct {
		policy opt.MatPolicy
		want   bool
	}{
		{opt.AlwaysMat{}, true},
		{opt.NewStreamingOMP(-1), false},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Store: st, Opts: Options{Policy: tc.policy, Plan: plan.Options{MaterializeOutputs: false, Streaming: true}}}
		var c counters
		prog := testProgram(&c)
		d := prog.DAG
		nd := d.MustAddNode("random", core.KindExtractor, core.DPR, "rand-v1", false)
		mustEdge(d, d.Node("source"), nd)
		sink := d.MustAddNode("sink", core.KindReducer, core.PPR, "sink-v1", true)
		mustEdge(d, nd, sink)
		d.MarkOutput(sink)
		prog.Fns[nd] = func(ctx context.Context, in []any) (any, error) {
			time.Sleep(opDelay)
			return 42, nil
		}
		prog.Fns[sink] = func(ctx context.Context, in []any) (any, error) {
			time.Sleep(opDelay)
			return in[0], nil
		}
		if _, err := e.Run(context.Background(), prog, nil, 0); err != nil {
			t.Fatal(err)
		}
		stored := false
		for _, key := range st.Keys() {
			if ent, ok := st.Entry(key); ok && ent.Name == "random" {
				stored = true
			}
		}
		if stored != tc.want {
			t.Fatalf("policy %T: nondeterministic stored = %v, want %v", tc.policy, stored, tc.want)
		}
	}
}

// TestPurgeReleasesOMPBudget: purging deprecated results lowers the
// store's ledger, so under a budget that holds exactly one iteration's
// artifacts the next iteration's new versions are still admitted.
func TestPurgeReleasesOMPBudget(t *testing.T) {
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	// The first iteration under no budget learns what one iteration
	// stores; the same iteration then runs on a fresh store under a
	// budget of exactly that.
	probe, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(probe, -1).Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	budget := probe.UsedBytes()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, budget)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := st.UsedBytes(); got != budget {
		t.Fatalf("first iteration stored %d B, want the unbudgeted run's %d B", got, budget)
	}

	// Change the extractor: everything downstream deprecates and is
	// purged, and the new versions, of the same sizes, must fit again.
	var c2 counters
	prog2 := testProgram(&c2)
	prog2.DAG.Node("extract").OpSignature = "ext-v2"
	if _, err := e.Run(ctx, prog2, prog.DAG, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"extract", "learn"} {
		if key := prog2.DAG.Node(name).ChainSignature(); !st.Has(key) {
			t.Errorf("edited %s not stored: the purge did not release its old version's bytes", name)
		}
	}
	if got := st.UsedBytes(); got > budget {
		t.Fatalf("store holds %d B against a %d B budget", got, budget)
	}
}
