package helix_test

import (
	"context"
	"testing"

	"helix"
	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/sim"
	"helix/internal/workloads"
)

// planRow projects a NodePlan onto its decision-relevant fields so plans
// built from different compilations can be compared for equivalence.
type planRow struct {
	name         string
	state        core.State
	live         bool
	original     bool
	output       bool
	mandatoryMat bool
	costs        opt.Costs
	own, cum     float64
	rationale    string
}

func planRows(p *helix.Plan) map[string]planRow {
	rows := make(map[string]planRow, len(p.Nodes))
	for _, np := range p.Nodes {
		rows[np.Node.Name] = planRow{
			name:         np.Node.Name,
			state:        np.State,
			live:         np.Live,
			original:     np.Original,
			output:       np.Output,
			mandatoryMat: np.MandatoryMat,
			costs:        np.Costs,
			own:          np.ProjectedOwn,
			cum:          np.ProjectedCum,
			rationale:    np.Rationale,
		}
	}
	return rows
}

func assertPlansEquivalent(t *testing.T, got, want *helix.Plan) {
	t.Helper()
	gr, wr := planRows(got), planRows(want)
	if len(gr) != len(wr) {
		t.Fatalf("plan has %d rows, want %d", len(gr), len(wr))
	}
	for name, w := range wr {
		if g, ok := gr[name]; !ok || g != w {
			t.Fatalf("row %s differs:\n got %+v\nwant %+v", name, gr[name], w)
		}
	}
	if got.ProjectedSeconds != want.ProjectedSeconds {
		t.Fatalf("ProjectedSeconds %v, want %v", got.ProjectedSeconds, want.ProjectedSeconds)
	}
}

// TestSessionPlanCacheEquivalenceOnWorkloads drives the census and
// genomics workloads through their full iteration schedules and checks,
// at every iteration, that the plan the session produces (cold or cached)
// deep-equals a from-scratch solve of the same inputs — and that a repeat
// Session.Plan of an unchanged workflow is a full fingerprint hit that
// performs zero max-flow solves.
func TestSessionPlanCacheEquivalenceOnWorkloads(t *testing.T) {
	workloads.RegisterAll()
	for _, wlName := range []string{"census", "genomics"} {
		t.Run(wlName, func(t *testing.T) {
			wl, err := sim.NewWorkload(wlName, workloads.Scale{Rows: 1, CostFactor: 40}, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := helix.Open(t.TempDir(), helix.WithDiskThroughput(sim.PaperDiskBytesPerSec))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			ctx := context.Background()
			seq := wl.Sequence()
			iters := len(seq)
			if iters > 6 {
				iters = 6
			}
			for ti := 0; ti < iters; ti++ {
				if ti > 0 {
					wl.Mutate(ti, seq[ti])
				}
				wf := wl.Build()

				// The deep-equality check pairs two plans under one
				// configuration (first call, then a repeat that must be a
				// full hit).
				p1, err := sess.Plan(wf)
				if err != nil {
					t.Fatal(err)
				}
				solvesBefore := opt.SolveCount()
				p2, err := sess.Plan(wf)
				if err != nil {
					t.Fatal(err)
				}
				if p2.Cache != plan.CacheHit {
					t.Fatalf("iter %d: repeat Plan outcome %v, want hit", ti, p2.Cache)
				}
				if d := opt.SolveCount() - solvesBefore; d != 0 {
					t.Fatalf("iter %d: cache hit performed %d solves, want 0", ti, d)
				}
				assertPlansEquivalent(t, p2, p1)

				// States must agree with a from-scratch solve of the same
				// session state. The oracle is a run-scoped threshold the
				// session has never planned under: the threshold only
				// steers Algorithm 2 at execution time, but it is part of
				// the configuration token, so no cached entry can serve it
				// (the fuzz harness's invariant-4 oracle, made cold every
				// iteration by never repeating a value).
				op, err := sess.Plan(wf, helix.WithOMPThreshold(2+float64(ti+1)*1e-6))
				if err != nil {
					t.Fatal(err)
				}
				if op.Cache != plan.CacheCold {
					t.Fatalf("iter %d: oracle plan outcome %v, want cold", ti, op.Cache)
				}
				for _, np := range p1.Nodes {
					onp := op.ByName(np.Node.Name)
					if onp == nil {
						t.Fatalf("iter %d: oracle lacks node %s", ti, np.Node.Name)
					}
					if np.Original != onp.Original || np.Live != onp.Live {
						t.Fatalf("iter %d node %s: original/live %v/%v, oracle %v/%v",
							ti, np.Node.Name, np.Original, np.Live, onp.Original, onp.Live)
					}
				}

				if _, err := sess.Run(ctx, wf); err != nil {
					t.Fatal(err)
				}
			}
			st := sess.PlanCacheStats()
			if st.Hits == 0 {
				t.Fatalf("no full cache hits over %d iterations: %+v", iters, st)
			}
		})
	}
}

// TestSessionSteadyStateRunIsFullHit: once the store has absorbed an
// iteration's materializations, re-running the identical workflow plans
// with zero solves — the unchanged-DAG + unchanged-store fast path.
func TestSessionSteadyStateRunIsFullHit(t *testing.T) {
	workloads.RegisterAll()
	wl, err := sim.NewWorkload("census", workloads.Scale{Rows: 1, CostFactor: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Iteration 0 materializes; iteration 1 (identical workflow) settles
	// the store: it loads/prunes and writes nothing new.
	if _, err := sess.Run(ctx, wl.Build()); err != nil {
		t.Fatal(err)
	}
	res1, err := sess.Run(ctx, wl.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res1.StateCounts[core.StateCompute] != 0 {
		t.Fatalf("identical rerun computed %d nodes", res1.StateCounts[core.StateCompute])
	}

	// Iteration 2: nothing changed since iteration 1 — full hit, zero
	// solves, zero recomputation.
	solvesBefore := opt.SolveCount()
	res2, err := sess.Run(ctx, wl.Build())
	if err != nil {
		t.Fatal(err)
	}
	if d := opt.SolveCount() - solvesBefore; d != 0 {
		t.Fatalf("steady-state iteration performed %d solves, want 0", d)
	}
	if res2.Plan.Cache != plan.CacheHit {
		t.Fatalf("steady-state plan outcome %v, want hit", res2.Plan.Cache)
	}
	for name, want := range res1.Values {
		if got := res2.Values[name]; got == nil {
			t.Fatalf("output %s missing from cached-plan run (want %v)", name, want)
		}
	}
}

// TestSessionPlanInspectionDoesNotEvictSteadyState: Session.Plan is
// documented as pure inspection — planning unrelated workflows between
// Runs must not evict the cache entry the next Run's full hit rests on.
func TestSessionPlanInspectionDoesNotEvictSteadyState(t *testing.T) {
	workloads.RegisterAll()
	wl, err := sim.NewWorkload("census", workloads.Scale{Rows: 1, CostFactor: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := sim.NewWorkload("genomics", workloads.Scale{Rows: 1, CostFactor: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	// Reach the settled steady state (see TestSessionSteadyStateRunIsFullHit).
	for i := 0; i < 2; i++ {
		if _, err := sess.Run(ctx, wl.Build()); err != nil {
			t.Fatal(err)
		}
	}

	// Inspect an unrelated workflow a few times.
	for i := 0; i < 3; i++ {
		if _, err := sess.Plan(other.Build()); err != nil {
			t.Fatal(err)
		}
	}

	solvesBefore := opt.SolveCount()
	res, err := sess.Run(ctx, wl.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Cache != plan.CacheHit {
		t.Fatalf("steady-state run after inspections planned %v, want hit", res.Plan.Cache)
	}
	if d := opt.SolveCount() - solvesBefore; d != 0 {
		t.Fatalf("steady-state run after inspections performed %d solves, want 0", d)
	}
}

// TestSessionOptionChangesForceResolve: a session opened on the same
// store directory with a different parallelism or storage budget must
// plan cold — configuration is part of the fingerprint, and caches are
// never shared across configurations.
func TestSessionOptionChangesForceResolve(t *testing.T) {
	workloads.RegisterAll()
	dir := t.TempDir()
	wl, err := sim.NewWorkload("census", workloads.Scale{Rows: 1, CostFactor: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	run := func(o ...helix.Option) *helix.Session {
		t.Helper()
		sess, err := helix.Open(dir, o...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(ctx, wl.Build()); err != nil {
			t.Fatal(err)
		}
		return sess
	}

	s1 := run(helix.WithParallelism(2))
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same store, changed parallelism: the first plan of the new session
	// must be a cold solve, not any form of reuse.
	solvesBefore := opt.SolveCount()
	s2 := run(helix.WithParallelism(4))
	if d := opt.SolveCount() - solvesBefore; d == 0 {
		t.Fatal("changed Parallelism reused a plan without any solve")
	}
	if st := s2.PlanCacheStats(); st.Hits != 0 {
		t.Fatalf("changed Parallelism produced cache hits: %+v", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Changed storage budget likewise.
	solvesBefore = opt.SolveCount()
	s3 := run(helix.WithParallelism(4), helix.WithStorageBudget(1<<20))
	if d := opt.SolveCount() - solvesBefore; d == 0 {
		t.Fatal("changed StorageBudget reused a plan without any solve")
	}
	if st := s3.PlanCacheStats(); st.Hits != 0 {
		t.Fatalf("changed StorageBudget produced cache hits: %+v", st)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}
