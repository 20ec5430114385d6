package fuzz

import (
	"context"
	"os"
	"reflect"
	"testing"

	"helix/internal/core"
	"helix/internal/plan"
)

// chainCase is the directed steady-state scenario: a four-node chain of
// heavy operators under PolicyAlways, run through two quiet iterations
// (all loads), a third quiet iteration (full fingerprint hit), a
// parameter bump (a cold solve), and a final quiet iteration. It
// deterministically drives the plan cache through cold → cold → HIT →
// cold, so the invariant-4 oracle comparison provably runs against a full
// fingerprint hit.
func chainCase() *Case {
	return &Case{
		Seed:   1,
		Config: Config{Policy: "always", Parallelism: 2},
		Base: []NodeSpec{
			{Name: "n0", Kind: "source", Op: 3, Param: 1},
			{Name: "n1", Kind: "extractor", Parents: []string{"n0"}, Op: 3, Param: 1},
			{Name: "n2", Kind: "learner", Parents: []string{"n1"}, Op: 3, Param: 1},
			{Name: "n3", Kind: "reducer", Parents: []string{"n2"}, Op: 3, Param: 1, Output: true},
		},
		Iters: [][]Edit{
			{}, {}, {},
			{{Op: "bump", Node: "n1"}},
			{},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 12345, 1 << 40} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Fatal("distinct seeds generated identical cases")
	}
}

// TestGeneratedDAGsWellFormed: every generated case builds a compilable
// workflow at every iteration (parents precede children, at least one
// output survives every edit).
func TestGeneratedDAGsWellFormed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		c := Generate(seed)
		cur := cloneSpecs(c.Base)
		for it, edits := range c.Iters {
			cur = applyEdits(cur, edits)
			if countOutputs(cur) == 0 {
				t.Fatalf("seed %d iter %d: no outputs left", seed, it)
			}
			wf, err := BuildWorkflow("wf", cur)
			if err != nil {
				t.Fatalf("seed %d iter %d: %v", seed, it, err)
			}
			if _, err := wf.Compile(); err != nil {
				t.Fatalf("seed %d iter %d: compile: %v", seed, it, err)
			}
		}
	}
}

// TestDirectedChainCoverage runs the directed steady-state case and
// asserts the harness saw every plan-cache outcome — in particular a
// full fingerprint hit, which is when invariant 4 (cached plan ≡ fresh
// solve) has real teeth.
func TestDirectedChainCoverage(t *testing.T) {
	stats := &Stats{}
	v, err := RunCase(context.Background(), t.TempDir(), chainCase(), stats)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("directed chain case violated an invariant: %s", v)
	}
	if stats.ColdPlans < 1 || stats.FullHits < 1 {
		t.Fatalf("directed case missed a plan-cache outcome: cold=%d full=%d",
			stats.ColdPlans, stats.FullHits)
	}
}

// streamChainCase is the directed streaming scenario: a fusible chain of
// three row-wise operators between batch endpoints, run through five
// iterations with a mid-sequence restart before iteration 2 and a
// cancellation attempt during iteration 3. It deterministically exercises
// invariants 6 (restart history, cancellation behavior) and 7 (streaming
// ≡ batch).
func streamChainCase() *Case {
	return &Case{
		Seed:   2,
		Config: Config{Policy: "always", Parallelism: 2},
		Base: []NodeSpec{
			{Name: "n0", Kind: "source", Op: 3, Param: 1},
			{Name: "s1", Kind: "extractor", Parents: []string{"n0"}, Op: 2, Param: 1, Stream: "map"},
			{Name: "s2", Kind: "extractor", Parents: []string{"s1"}, Op: 1, Param: 1, Stream: "filter"},
			{Name: "s3", Kind: "scanner", Parents: []string{"s2"}, Op: 4, Param: 1, Stream: "flatmap"},
			{Name: "n4", Kind: "reducer", Parents: []string{"s3"}, Op: 3, Param: 1, Output: true},
		},
		Iters: [][]Edit{
			{}, {}, {},
			{{Op: "bump", Node: "s2"}},
			{},
		},
		Restarts: []int{2},
		Cancels:  []int{3},
	}
}

// TestDirectedStreamRestartCancel runs the streaming chain with a
// scheduled restart and cancellation and asserts both actually happened.
func TestDirectedStreamRestartCancel(t *testing.T) {
	stats := &Stats{}
	v, err := RunCase(context.Background(), t.TempDir(), streamChainCase(), stats)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("directed streaming case violated an invariant: %s", v)
	}
	if stats.Restarts != 1 || stats.Cancels != 1 {
		t.Fatalf("restarts=%d cancels=%d, want 1 each", stats.Restarts, stats.Cancels)
	}
}

// TestFuzzSmoke is the CI smoke budget's little sibling: a few dozen
// random cases through the full harness. The dedicated
// fuzz-smoke CI job runs the same harness at ≥200 cases via
// cmd/helixfuzz.
func TestFuzzSmoke(t *testing.T) {
	cases := 30
	if testing.Short() {
		cases = 8
	}
	stats := &Stats{}
	f, err := Run(context.Background(), Options{Seed: 1, Cases: cases, Stats: stats, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("fuzz failure: %s\nminimized case: %+v", f, f.Minimized)
	}
	t.Logf("coverage: %d cases, %d iterations, %d cold / %d full-hit plans, %d restarts, %d cancels (%d aborted), %d artifacts damaged, %d loads failed",
		stats.Cases, stats.Iterations, stats.ColdPlans, stats.FullHits,
		stats.Restarts, stats.Cancels, stats.CancelAborted, stats.Damaged, stats.LoadFailures)
	if stats.ColdPlans == 0 || stats.FullHits == 0 {
		t.Errorf("smoke run missed a plan-cache outcome: cold=%d full=%d", stats.ColdPlans, stats.FullHits)
	}
	if !testing.Short() && stats.Restarts == 0 && stats.Cancels == 0 {
		t.Error("smoke run never scheduled a restart or a cancellation")
	}
	if !testing.Short() && stats.LoadFailures == 0 {
		t.Error("smoke run never failed a load on a damaged artifact (invariant 13)")
	}
}

// TestEvictionPressure runs generated eviction-pressure cases — budgets
// of one-to-three entries that force Algorithm 2 to churn slots on
// every admission — and asserts the mode both appears in generation and
// actually evicts (manifest keys disappearing between iterations), so
// invariant 5's purge-credit accounting is exercised rather than
// vacuously satisfied.
func TestEvictionPressure(t *testing.T) {
	want := 6
	if testing.Short() {
		want = 2
	}
	stats := &Stats{}
	ran := 0
	for seed := int64(1); ran < want && seed < 10_000; seed++ {
		c := Generate(seed)
		if !c.Config.EvictPressure {
			continue
		}
		ran++
		if c.Config.Policy != "opt" || c.Config.BudgetBytes <= 0 || c.Config.BudgetBytes >= 2048 {
			t.Fatalf("seed %d: eviction-pressure case drew policy %q budget %d", seed, c.Config.Policy, c.Config.BudgetBytes)
		}
		v, err := RunCase(context.Background(), t.TempDir(), c, stats)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v != nil {
			t.Fatalf("seed %d: invariant violation under eviction pressure: %s", seed, v)
		}
	}
	if ran < want {
		t.Fatalf("found only %d eviction-pressure cases in seed sweep, want %d", ran, want)
	}
	t.Logf("eviction pressure: %d cases, %d iterations, %d evictions", stats.EvictCases, stats.Iterations, stats.Evictions)
	if stats.EvictCases != ran {
		t.Errorf("stats counted %d eviction-pressure cases, ran %d", stats.EvictCases, ran)
	}
	if stats.Evictions == 0 {
		t.Error("eviction-pressure sweep never evicted a manifest entry")
	}
}

// TestInjectedPlannerBugCaughtAndMinimized is the harness's mutation
// check: deliberately corrupt every plan the planner returns (prune the
// first live output) and assert the fuzzer catches it, auto-minimizes
// the failing case, writes a corpus entry, and that the failure
// reproduces from the printed seed alone.
func TestInjectedPlannerBugCaughtAndMinimized(t *testing.T) {
	plan.TestHookMutatePlan = func(p *plan.Plan) {
		for _, np := range p.Nodes {
			if np.Output && np.State != core.StatePrune {
				np.State = core.StatePrune
				np.MandatoryMat = false
				return
			}
		}
	}
	defer func() { plan.TestHookMutatePlan = nil }()

	corpus := t.TempDir()
	f, err := Run(context.Background(), Options{Seed: 99, Cases: 5, Corpus: corpus, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("injected planner bug (output pruned) escaped the harness")
	}
	if f.Violation.Invariant != "output-pruned" && f.Violation.Invariant != "plan-cache-soundness" {
		t.Errorf("caught as %q, expected the output-pruned (or soundness) invariant", f.Violation.Invariant)
	}
	if f.Minimized.size() > f.Case.size() {
		t.Errorf("minimization grew the case: %d → %d", f.Case.size(), f.Minimized.size())
	}
	if len(f.Minimized.Iters) != 1 {
		t.Errorf("minimized case kept %d iterations, want 1 (bug fires at iteration 0)", len(f.Minimized.Iters))
	}
	if f.CorpusFile == "" {
		t.Fatal("no corpus entry written for the failure")
	}
	if _, err := os.Stat(f.CorpusFile); err != nil {
		t.Fatalf("corpus entry missing: %v", err)
	}

	// The printed seed alone must reproduce the failure.
	c := Generate(f.CaseSeed)
	v, err := runInTemp(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("failure did not reproduce from its seed")
	}

	// And the corpus entry replays to the same invariant while the bug
	// is live.
	rv, err := Replay(context.Background(), f.CorpusFile)
	if err != nil {
		t.Fatal(err)
	}
	if rv == nil || rv.Invariant != f.Violation.Invariant {
		t.Fatalf("corpus replay = %v, want invariant %s", rv, f.Violation.Invariant)
	}
}

// TestCorpusRoundTrip: a known-good case written to the corpus replays
// clean.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteCorpus(dir, chainCase(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("known-good corpus case replayed dirty: %s", v)
	}
}
