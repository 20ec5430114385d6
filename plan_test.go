package helix_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"helix"
	"helix/internal/core"
	"helix/internal/plan"
	"helix/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func init() { workloads.RegisterAll() }

// censusProgramDAG compiles the census workflow and returns its DAG with
// signatures computed.
func censusProgramDAG(t *testing.T) *core.DAG {
	t.Helper()
	wf := workloads.NewCensus(workloads.Scale{Rows: 1, CostFactor: 40}, 1).Build()
	prog, err := wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog.DAG.ComputeSignatures()
	return prog.DAG
}

// deterministicView is a plan.MatView with fixed sizes and the paper's
// 170 MB/s disk, so projected load costs are reproducible.
type deterministicView struct{ sizes map[string]int64 }

func (v deterministicView) Lookup(key string) (int64, bool) {
	s, ok := v.sizes[key]
	return s, ok
}

func (v deterministicView) EstimateLoad(size int64) time.Duration {
	return time.Duration(float64(size) / 170e6 * float64(time.Second))
}

// TestPlanExplainGoldenCensus pins Plan.Explain()'s decision table for
// the census workflow against a golden file. The scenario is fully
// deterministic and models an L/I iteration: the previous iteration's DAG
// is an equivalent census compile with synthetic per-node statistics
// (ID-derived compute times), every DPR result is materialized (ID-sized,
// loaded at the paper's 170 MB/s), and the learner's parameters changed —
// so the plan mixes originals that must compute, loads that free
// ancestors for pruning, a sliced-away dead branch, and a mandatory
// output materialization, with every printed cost reproducible.
// Regenerate with `go test -run PlanExplainGolden -update .` after
// intentional format changes.
func TestPlanExplainGoldenCensus(t *testing.T) {
	d := censusProgramDAG(t)

	prev := censusProgramDAG(t)
	for i, n := range prev.Nodes() {
		n.Metrics = core.Metrics{
			Compute: time.Duration(i+1) * 100 * time.Millisecond,
			Known:   true,
		}
	}

	sizes := make(map[string]int64)
	for i, n := range d.Nodes() {
		if n.Component == core.DPR {
			sizes[n.ChainSignature()] = int64(i+1) << 20
		}
	}
	// The L/I mutation: this iteration retunes the learner, deprecating it
	// and its downstream (the planner recomputes signatures itself).
	d.Node("predictions").OpSignature += "|regParam=0.01"

	planner := &plan.Planner{
		View: deterministicView{sizes: sizes},
		Opts: plan.Options{MaterializeOutputs: true},
	}
	p, err := planner.Plan(d, prev, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Explain()

	golden := filepath.Join("testdata", "census_explain.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Plan.Explain() drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSessionPlanLeavesSessionUntouched: Session.Plan is pure inspection.
// Planning a changed workflow must not advance the iteration counter,
// must not replace the previous iteration's DAG, and must not purge or
// otherwise mutate the store — the next Run must still see full reuse.
func TestSessionPlanLeavesSessionUntouched(t *testing.T) {
	dir := t.TempDir()
	sess, err := helix.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	build := func(learnerParams string) *helix.Workflow {
		wf := helix.New("tiny")
		src := wf.Source("data", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			time.Sleep(10 * time.Millisecond)
			return []string{"a", "b", "c"}, nil
		})
		ext := wf.Extractor("count", "len", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			time.Sleep(10 * time.Millisecond)
			return len(in[0].([]string)), nil
		}, src)
		wf.Reducer("final", learnerParams, func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			time.Sleep(10 * time.Millisecond)
			return in[0].(int) * 2, nil
		}, ext).IsOutput()
		return wf
	}

	if _, err := sess.Run(ctx, build("v1")); err != nil {
		t.Fatal(err)
	}
	iterBefore := sess.Iteration()
	storageBefore := sess.StorageBytes()
	// The persisted state is the base and the journal together.
	persisted := func() string {
		var all string
		for _, name := range []string{"session.json", "session.journal"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			all += name + ":" + string(data) + "\n"
		}
		return all
	}
	stateBefore := persisted()
	if !strings.Contains(stateBefore, `"iteration":1`) {
		t.Fatalf("the Run persisted no state: %q", stateBefore)
	}

	// Plan a CHANGED workflow several times: the changed reducer must be
	// planned for recomputation, but nothing about the session may move.
	for i := 0; i < 3; i++ {
		p, err := sess.Plan(build("v2"))
		if err != nil {
			t.Fatal(err)
		}
		np := p.ByName("final")
		if np == nil || !np.Original || np.State != helix.StateCompute {
			t.Fatalf("changed output plan = %+v, want original compute", np)
		}
		if p.Iteration != iterBefore {
			t.Fatalf("plan iteration %d, want session's %d", p.Iteration, iterBefore)
		}
	}

	if got := sess.Iteration(); got != iterBefore {
		t.Fatalf("Plan advanced iteration: %d → %d", iterBefore, got)
	}
	if got := sess.StorageBytes(); got != storageBefore {
		t.Fatalf("Plan changed store usage: %d → %d bytes", storageBefore, got)
	}
	if stateBefore != persisted() {
		t.Fatal("Plan rewrote persisted session state")
	}

	// The decisive check: rerunning the ORIGINAL workflow still reuses
	// everything, so Plan did not replace the prev DAG or purge results.
	res, err := sess.Run(ctx, build("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.StateCounts[helix.StateCompute] != 0 {
		t.Fatalf("rerun after Plan recomputed %d nodes: planning mutated session state",
			res.StateCounts[helix.StateCompute])
	}
}

// TestSessionPlanMatchesExecutedPlan: the plan Session.Plan returns for a
// workflow agrees with the plan Run executes immediately afterwards.
func TestSessionPlanMatchesExecutedPlan(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	wf := workloads.NewCensus(workloads.Scale{Rows: 1, CostFactor: 40}, 1).Build()
	planned, err := sess.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ctx, wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Result.Plan not populated")
	}
	for _, np := range planned.Nodes {
		got := res.Plan.ByName(np.Node.Name)
		if got == nil || got.State != np.State {
			t.Fatalf("node %s: planned %v, executed %v", np.Node.Name, np.State, got)
		}
		if rep, ok := res.Nodes[np.Node.Name]; !ok || rep.State != np.State {
			t.Fatalf("node %s: realized state %v != planned %v", np.Node.Name, rep.State, np.State)
		}
	}
}

// TestPlanDOTGoldenCensus pins Workflow.PlanDOT — the last untested
// render path — against a golden file, under the same fully
// deterministic L/I-iteration scenario as TestPlanExplainGoldenCensus:
// synthetic carried statistics, ID-sized DPR materializations loaded at
// the paper's 170 MB/s, and a retuned learner. The golden output pins
// the state/C(n) labels, the prune/load styling, the mandatory-mat drum
// marker, and every rationale tooltip. Regenerate with
// `go test -run PlanDOTGolden -update .` after intentional format
// changes.
func TestPlanDOTGoldenCensus(t *testing.T) {
	wf := workloads.NewCensus(workloads.Scale{Rows: 1, CostFactor: 40}, 1).Build()
	prog, err := wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d := prog.DAG
	d.ComputeSignatures()

	prev := censusProgramDAG(t)
	for i, n := range prev.Nodes() {
		n.Metrics = core.Metrics{
			Compute: time.Duration(i+1) * 100 * time.Millisecond,
			Known:   true,
		}
	}
	sizes := make(map[string]int64)
	for i, n := range d.Nodes() {
		if n.Component == core.DPR {
			sizes[n.ChainSignature()] = int64(i+1) << 20
		}
	}
	d.Node("predictions").OpSignature += "|regParam=0.01"

	planner := &plan.Planner{
		View: deterministicView{sizes: sizes},
		Opts: plan.Options{MaterializeOutputs: true},
	}
	p, err := planner.Plan(d, prev, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wf.PlanDOT(p)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "census_plandot.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Workflow.PlanDOT drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPlanDOTAnnotations: PlanDOT renders plan states and rationale.
func TestPlanDOTAnnotations(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	wf := workloads.NewCensus(workloads.Scale{Rows: 1, CostFactor: 40}, 1).Build()
	p, err := sess.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := wf.PlanDOT(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "Sc", "C(n)=", "tooltip=", "⛁ mandatory"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("PlanDOT missing %q:\n%s", want, dot)
		}
	}
}

// TestProjectedCumMatchesUnmaskedSum: the planner sums C(n) only over the
// ancestors with a non-zero own time. Every ProjectedCum, and the plan's
// ProjectedSeconds, must equal the plain in-order sum over all ancestors
// bit for bit — on the census golden scenario and on a plan-wide-shaped
// DAG (50 layers × 20, fan-in 5) after a leaf and a mid-layer edit.
func TestProjectedCumMatchesUnmaskedSum(t *testing.T) {
	check := func(name string, p *plan.Plan) {
		t.Helper()
		nonzero, total := 0, 0.0
		for i, np := range p.Nodes {
			cum := np.ProjectedOwn
			p.ForEachAncestor(i, func(j int) { cum += p.Nodes[j].ProjectedOwn })
			if math.Float64bits(cum) != math.Float64bits(np.ProjectedCum) {
				t.Fatalf("%s: %s ProjectedCum %v, unmasked sum %v", name, np.Node.Name, np.ProjectedCum, cum)
			}
			total += np.ProjectedOwn
			if np.ProjectedOwn != 0 {
				nonzero++
			}
		}
		if math.Float64bits(total) != math.Float64bits(p.ProjectedSeconds) {
			t.Fatalf("%s: ProjectedSeconds %v, in-order sum %v", name, p.ProjectedSeconds, total)
		}
		if nonzero == 0 || nonzero == len(p.Nodes) {
			t.Fatalf("%s: %d of %d nodes have an own time; the scenario must mix both", name, nonzero, len(p.Nodes))
		}
	}

	d, prev := censusProgramDAG(t), censusProgramDAG(t)
	sizes := make(map[string]int64)
	for i, n := range prev.Nodes() {
		n.Metrics = core.Metrics{Compute: time.Duration(i+1) * 100 * time.Millisecond, Known: true}
		if n.Component == core.DPR {
			sizes[n.ChainSignature()] = int64(i+1) << 20
		}
	}
	d.Node("predictions").OpSignature += "|regParam=0.01"
	planner := &plan.Planner{View: deterministicView{sizes: sizes}, Opts: plan.Options{MaterializeOutputs: true}}
	p, err := planner.Plan(d, prev, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("census", p)

	const layers, width, fanIn = 50, 20, 5
	wide := func(edited ...string) *core.DAG {
		d := core.NewDAG()
		var below []*core.Node
		for l := 0; l < layers; l++ {
			var cur []*core.Node
			for w := 0; w < width; w++ {
				name := fmt.Sprintf("n%d_%d", l, w)
				op := "Extractor|" + name + "|v0"
				if slices.Contains(edited, name) {
					op += "'"
				}
				n := d.MustAddNode(name, core.KindExtractor, core.DPR, op, true)
				// Irregular costs, so that summing in another order would
				// round differently; originals keep theirs.
				n.Metrics = core.Metrics{Compute: time.Duration(1+(n.ID*7919)%9973) * time.Microsecond, Known: true}
				for k := 0; l > 0 && k < fanIn; k++ {
					if err := d.AddEdge(below[(w+k)%width], n); err != nil {
						t.Fatal(err)
					}
				}
				if l == layers-1 {
					d.MarkOutput(n)
				}
				cur = append(cur, n)
			}
			below = cur
		}
		return d
	}
	prev = wide()
	prev.ComputeSignatures()
	sizes = make(map[string]int64)
	for i, n := range prev.Nodes() {
		n.Metrics.Compute *= 50
		sizes[n.ChainSignature()] = int64(1+(i*104729)%65536) << 10
	}
	cached := &plan.Planner{View: deterministicView{sizes: sizes}, Opts: plan.Options{MaterializeOutputs: true}, Cache: plan.NewCache("wide")}
	for _, edit := range [][]string{nil, {"n49_3"}, {"n25_7"}, {"n49_3", "n0_0"}} {
		p, err := cached.Plan(wide(edit...), prev, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("plan-wide %v (%s)", edit, p.Cache), p)
	}
}
