package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"helix/internal/core"
)

// --- PSP ---

func TestPSPAllPositiveNoPrereqs(t *testing.T) {
	sel := SolvePSP([]float64{3, 5, 2}, nil)
	for i, s := range sel {
		if !s {
			t.Fatalf("project %d with positive profit unselected", i)
		}
	}
}

func TestPSPNegativeAlone(t *testing.T) {
	sel := SolvePSP([]float64{-4}, nil)
	if sel[0] {
		t.Fatal("negative-profit project selected with no reason")
	}
}

func TestPSPPrereqForcesBundle(t *testing.T) {
	// Project 0 profit 10 requires project 1 profit -3: bundle worth 7 → select both.
	sel := SolvePSP([]float64{10, -3}, []Prereq{{Project: 0, Requires: 1}})
	if !sel[0] || !sel[1] {
		t.Fatalf("profitable bundle not selected: %v", sel)
	}
	// Profit 2 requires -3: bundle worth -1 → select neither.
	sel = SolvePSP([]float64{2, -3}, []Prereq{{Project: 0, Requires: 1}})
	if sel[0] || sel[1] {
		t.Fatalf("losing bundle selected: %v", sel)
	}
}

// bruteForcePSP enumerates all subsets.
func bruteForcePSP(profits []float64, prereqs []Prereq) float64 {
	n := len(profits)
	best := 0.0 // empty selection is always feasible with profit 0
	for mask := 0; mask < 1<<n; mask++ {
		sel := make([]bool, n)
		for i := 0; i < n; i++ {
			sel[i] = mask&(1<<i) != 0
		}
		if v, ok := PSPValue(profits, prereqs, sel); ok && v > best {
			best = v
		}
	}
	return best
}

func TestQuickPSPOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		profits := make([]float64, n)
		for i := range profits {
			profits[i] = float64(rng.Intn(21) - 10)
		}
		var prereqs []Prereq
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.2 {
					prereqs = append(prereqs, Prereq{Project: i, Requires: j})
				}
			}
		}
		sel := SolvePSP(profits, prereqs)
		got, ok := PSPValue(profits, prereqs, sel)
		if !ok {
			return false // solver violated a prerequisite
		}
		want := bruteForcePSP(profits, prereqs)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- OEP ---

// buildDAG constructs a DAG from an edge list over n nodes.
func buildDAG(t testing.TB, n int, edges [][2]int) *core.DAG {
	t.Helper()
	d := core.NewDAG()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = d.MustAddNode(fmt.Sprintf("n%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("op%d", i), true)
	}
	for _, e := range edges {
		if err := d.AddEdge(nodes[e[0]], nodes[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestOEPFigure4 reproduces the paper's Figure 4 example shape: loading a
// node lets its entire ancestor chain be pruned.
func TestOEPFigure4(t *testing.T) {
	// n0 → n1 → n2, n2 cheap to load, expensive chain above.
	d := buildDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	ns := d.Nodes()
	costs := map[*core.Node]Costs{
		ns[0]: {Compute: 100, Load: math.Inf(1)},
		ns[1]: {Compute: 100, Load: math.Inf(1)},
		ns[2]: {Compute: 100, Load: 1, Required: true},
	}
	plan := new(Solver).OptimalStates(d, costs)
	if plan.States[ns[2]] != core.StateLoad {
		t.Fatalf("n2 state = %v, want Load", plan.States[ns[2]])
	}
	if plan.States[ns[0]] != core.StatePrune || plan.States[ns[1]] != core.StatePrune {
		t.Fatalf("ancestors not pruned: %v %v", plan.States[ns[0]], plan.States[ns[1]])
	}
	if math.Abs(plan.Time-1) > 1e-9 {
		t.Fatalf("plan time = %v, want 1", plan.Time)
	}
}

// TestOEPComputeForcesParent mirrors the n8/n5 interaction in Figure 4:
// computing a node forces its parent to be available even if another
// branch is loaded.
func TestOEPComputeForcesParent(t *testing.T) {
	// n0 → n1 (changed, must compute); n0 expensive to compute, cheap load.
	d := buildDAG(t, 2, [][2]int{{0, 1}})
	ns := d.Nodes()
	costs := map[*core.Node]Costs{
		ns[0]: {Compute: 50, Load: 2},
		ns[1]: {Compute: 5, Load: math.Inf(1), MustCompute: true, Required: true},
	}
	plan := new(Solver).OptimalStates(d, costs)
	if plan.States[ns[1]] != core.StateCompute {
		t.Fatalf("original node state = %v, want Compute", plan.States[ns[1]])
	}
	if plan.States[ns[0]] != core.StateLoad {
		t.Fatalf("parent state = %v, want Load (cheaper than compute)", plan.States[ns[0]])
	}
	if err := CheckFeasible(d, costs, plan.States); err != nil {
		t.Fatal(err)
	}
}

func TestOEPPruneEverythingWhenNothingRequired(t *testing.T) {
	d := buildDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	costs := map[*core.Node]Costs{}
	for _, n := range d.Nodes() {
		costs[n] = Costs{Compute: 10, Load: 1}
	}
	plan := new(Solver).OptimalStates(d, costs)
	for n, s := range plan.States {
		if s != core.StatePrune {
			t.Fatalf("node %s = %v, want Prune (no outputs required)", n.Name, s)
		}
	}
	if plan.Time != 0 {
		t.Fatalf("time = %v, want 0", plan.Time)
	}
}

func TestOEPNodesOutsideSlicePruned(t *testing.T) {
	d := buildDAG(t, 2, nil)
	ns := d.Nodes()
	costs := map[*core.Node]Costs{ns[0]: {Compute: 1, Load: math.Inf(1), Required: true}}
	plan := new(Solver).OptimalStates(d, costs)
	if plan.States[ns[1]] != core.StatePrune {
		t.Fatal("node outside costs must be pruned")
	}
	if plan.States[ns[0]] != core.StateCompute {
		t.Fatal("required node without materialization must be computed")
	}
}

// randomOEPInstance builds a random DAG and cost assignment.
func randomOEPInstance(rng *rand.Rand, n int) (*core.DAG, map[*core.Node]Costs) {
	d := core.NewDAG()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = d.MustAddNode(fmt.Sprintf("n%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("op%d", i), true)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.35 {
				if err := d.AddEdge(nodes[i], nodes[j]); err != nil {
					panic(err)
				}
			}
		}
	}
	costs := make(map[*core.Node]Costs, n)
	for _, node := range nodes {
		c := Costs{
			Compute: float64(1 + rng.Intn(20)),
			Load:    float64(1 + rng.Intn(20)),
		}
		if rng.Float64() < 0.3 {
			c.Load = math.Inf(1)
		}
		if rng.Float64() < 0.2 {
			c.MustCompute = true
			c.Load = math.Inf(1)
		}
		if rng.Float64() < 0.3 {
			c.Required = true
		}
		costs[node] = c
	}
	// Ensure at least one sink is required so the instance is nontrivial.
	costs[nodes[n-1]] = Costs{Compute: float64(1 + rng.Intn(20)), Load: math.Inf(1), Required: true}
	return d, costs
}

// TestQuickOEPOptimalVsBruteForce is the core correctness property:
// Algorithm 1's plan cost equals the exhaustive optimum (Theorem 2).
func TestQuickOEPOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		d, costs := randomOEPInstance(rng, n)
		plan := new(Solver).OptimalStates(d, costs)
		if err := CheckFeasible(d, costs, plan.States); err != nil {
			t.Logf("infeasible: %v", err)
			return false
		}
		brute := BruteForceStates(d, costs)
		if math.IsInf(brute.Time, 1) {
			return true // no feasible plan exists; nothing to compare
		}
		if math.Abs(plan.Time-brute.Time) > 1e-6 {
			t.Logf("plan=%v brute=%v", plan.Time, brute.Time)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOEPFeasibleLarge checks feasibility (not optimality) on larger
// random DAGs where brute force is impossible.
func TestQuickOEPFeasibleLarge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		d, costs := randomOEPInstance(rng, n)
		plan := new(Solver).OptimalStates(d, costs)
		return CheckFeasible(d, costs, plan.States) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGreedyFeasibleAndNeverBeatsOptimal: the greedy ablation baseline
// is always feasible and never better than the optimal plan — and, over a
// fixed seeded set of instances, strictly worse on at least one (the OEP
// ablation: the global min-cut is worth having).
func TestQuickGreedyFeasibleAndNeverBeatsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		d, costs := randomOEPInstance(rng, n)
		greedy := GreedyStates(d, costs)
		if err := CheckFeasible(d, costs, greedy.States); err != nil {
			t.Logf("greedy infeasible: %v", err)
			return false
		}
		opt := new(Solver).OptimalStates(d, costs)
		return greedy.Time >= opt.Time-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// The OEP ablation's claim: greedy is strictly worse than the min-cut
	// on some instance of a seeded draw.
	t.Run("GreedyHasRegret", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 300; trial++ {
			d, costs := randomOEPInstance(rng, 2+rng.Intn(20))
			if GreedyStates(d, costs).Time > new(Solver).OptimalStates(d, costs).Time+1e-6 {
				return
			}
		}
		t.Fatal("greedy matched the optimal plan on all 300 seeded instances: the OEP ablation does not discriminate")
	})
}

func TestGreedySuboptimalExample(t *testing.T) {
	// Greedy loads both children locally; optimal loads only the sink and
	// prunes the chain. Demonstrates the value of the global min-cut.
	d := buildDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	ns := d.Nodes()
	costs := map[*core.Node]Costs{
		ns[0]: {Compute: 10, Load: 4},
		ns[1]: {Compute: 10, Load: 4},
		ns[2]: {Compute: 10, Load: 4, Required: true},
	}
	opt := new(Solver).OptimalStates(d, costs)
	if opt.Time != 4 {
		t.Fatalf("optimal time = %v, want 4 (load sink only)", opt.Time)
	}
}

// --- OMP ---

func TestStreamingOMPThreshold(t *testing.T) {
	p := NewStreamingOMP(-1)
	if p.Decide(nil, 10, 6, 100) {
		t.Fatal("materialized although C <= 2l")
	}
	if !p.Decide(nil, 13, 6, 100) {
		t.Fatal("did not materialize although C > 2l")
	}
}

func TestStreamingOMPBudget(t *testing.T) {
	p := NewStreamingOMP(150)
	if !p.Decide(nil, 100, 1, 100) {
		t.Fatal("first decision should fit budget")
	}
	if p.Decide(nil, 100, 1, 100) {
		t.Fatal("second decision should exceed budget")
	}
	if got := p.Remaining(); got != 50 {
		t.Fatalf("remaining = %d, want 50", got)
	}
	p.Release(100)
	if !p.Decide(nil, 100, 1, 100) {
		t.Fatal("released budget should allow materialization")
	}
}

func TestAlwaysNeverPolicies(t *testing.T) {
	if !(AlwaysMat{}).Decide(nil, 0, 1e9, 1<<40) {
		t.Fatal("AlwaysMat must always materialize")
	}
	if (NeverMat{}).Decide(nil, 1e9, 0, 0) {
		t.Fatal("NeverMat must never materialize")
	}
}

func TestCumulativeTimes(t *testing.T) {
	d := buildDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	ns := d.Nodes()
	own := map[*core.Node]float64{ns[0]: 1, ns[1]: 2, ns[2]: 4}
	cum := CumulativeTimes(d, own)
	if cum[ns[0]] != 1 || cum[ns[1]] != 3 || cum[ns[2]] != 7 {
		t.Fatalf("cumulative = %v %v %v, want 1 3 7", cum[ns[0]], cum[ns[1]], cum[ns[2]])
	}
}

func TestCumulativeTimesDiamondCountsOnce(t *testing.T) {
	// Diamond: 0 → 1, 0 → 2, 1 → 3, 2 → 3. Node 0 counted once for node 3.
	d := buildDAG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	ns := d.Nodes()
	own := map[*core.Node]float64{ns[0]: 10, ns[1]: 1, ns[2]: 1, ns[3]: 1}
	cum := CumulativeTimes(d, own)
	if cum[ns[3]] != 13 {
		t.Fatalf("cumulative(n3) = %v, want 13 (shared ancestor counted once)", cum[ns[3]])
	}
}

// TestExactOMPPrefersExpensiveChains: with budget for one node, the exact
// OMP materializes the node whose reuse saves the most.
func TestExactOMPPrefersExpensiveChains(t *testing.T) {
	d := buildDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	ns := d.Nodes()
	costs := map[*core.Node]Costs{
		ns[0]: {Compute: 10, Load: 1, Required: false},
		ns[1]: {Compute: 10, Load: 1},
		ns[2]: {Compute: 10, Load: 1, Required: true},
	}
	sizes := map[*core.Node]int64{ns[0]: 100, ns[1]: 100, ns[2]: 100}
	m, _ := ExactOMP(d, costs, sizes, 100)
	if !m[ns[2]] {
		t.Fatalf("exact OMP should materialize the sink: got %v", m)
	}
}

// TestQuickStreamingOMPNeverWorseThanNeverMat: under the identical-next-
// iteration assumption, following Algorithm 2's choices never yields a
// worse next-iteration total than materializing nothing.
func TestQuickStreamingOMPNeverWorseThanNeverMat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		d, costs := randomOEPInstance(rng, n)
		// First iteration: everything computed (no materializations yet).
		own := make(map[*core.Node]float64, n)
		firstCosts := make(map[*core.Node]Costs, n)
		for node, c := range costs {
			own[node] = c.Compute
			firstCosts[node] = Costs{Compute: c.Compute, Load: math.Inf(1), Required: c.Required, MustCompute: c.MustCompute}
		}
		cum := CumulativeTimes(d, own)
		// Apply Algorithm 2 with synthetic load costs.
		pol := NewStreamingOMP(-1)
		matTime := 0.0
		mat := make(map[*core.Node]bool)
		for _, node := range d.Nodes() {
			load := float64(1 + rng.Intn(10))
			if pol.Decide(node, cum[node], load, 1) {
				mat[node] = true
				matTime += load
				c := costs[node]
				c.Load = load
				costs[node] = c
			} else {
				c := costs[node]
				c.Load = math.Inf(1)
				costs[node] = c
			}
		}
		// Next iteration identical: drop MustCompute.
		next := make(map[*core.Node]Costs, n)
		nothing := make(map[*core.Node]Costs, n)
		for node, c := range costs {
			next[node] = Costs{Compute: c.Compute, Load: c.Load, Required: c.Required}
			nothing[node] = Costs{Compute: c.Compute, Load: math.Inf(1), Required: c.Required}
		}
		withMat := matTime + new(Solver).OptimalStates(d, next).Time
		noMat := new(Solver).OptimalStates(d, nothing).Time
		// Algorithm 2 materializes only when 2·load < C, so the investment
		// should not exceed the recompute-from-scratch bound by more than
		// the materialization time itself (it is a heuristic, not optimal;
		// we check the weaker sound-investment property).
		return withMat <= noMat+matTime+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMiniBatchOMPPinsFirstDecision(t *testing.T) {
	d := core.NewDAG()
	n := d.MustAddNode("op", core.KindExtractor, core.DPR, "op-v1", true)
	inner := NewStreamingOMP(-1)
	p := NewMiniBatchOMP(inner)
	if p.Blind() {
		t.Fatal("metadata wrong")
	}
	// First batch: cumulative 10s vs load 1s → materialize (10 > 2).
	if !p.Decide(n, 10, 1, 100) {
		t.Fatal("first batch should materialize")
	}
	// Later batches with contradicting statistics replay the decision.
	if !p.Decide(n, 0.1, 1, 100) {
		t.Fatal("pinned decision not replayed")
	}
	// A different operator gets its own first-batch decision.
	m := d.MustAddNode("other", core.KindExtractor, core.DPR, "o-v1", true)
	if p.Decide(m, 0.1, 1, 100) {
		t.Fatal("cheap operator should not materialize")
	}
	if p.Decide(m, 100, 1, 100) {
		t.Fatal("pinned negative decision not replayed")
	}
}

func TestMiniBatchOMPConcurrent(t *testing.T) {
	d := core.NewDAG()
	n := d.MustAddNode("op", core.KindExtractor, core.DPR, "op-v1", true)
	p := NewMiniBatchOMP(NewStreamingOMP(-1))
	const workers = 16
	results := make(chan bool, workers)
	for i := 0; i < workers; i++ {
		go func() { results <- p.Decide(n, 10, 1, 100) }()
	}
	first := <-results
	for i := 1; i < workers; i++ {
		if <-results != first {
			t.Fatal("concurrent batches saw different decisions")
		}
	}
}

// TestSolverReuseMatchesFreshSolves: one Solver reused across many
// differently-shaped random instances must produce exactly the plan a
// throwaway solver produces — scratch reuse may never leak state between
// solves.
func TestSolverReuseMatchesFreshSolves(t *testing.T) {
	var pooled Solver
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(40)
		d, costs := randomOEPInstance(rng, n)
		got := pooled.OptimalStates(d, costs)
		want := new(Solver).OptimalStates(d, costs)
		if math.Abs(got.Time-want.Time) > 1e-9 {
			t.Fatalf("instance %d: pooled time %v, fresh %v", i, got.Time, want.Time)
		}
		if err := CheckFeasible(d, costs, got.States); err != nil {
			t.Fatalf("instance %d: pooled plan infeasible: %v", i, err)
		}
		for _, nd := range d.Nodes() {
			if got.States[nd] != want.States[nd] {
				t.Fatalf("instance %d node %s: pooled %v, fresh %v", i, nd.Name, got.States[nd], want.States[nd])
			}
		}
	}
}

// TestSolveCountInstrumentation: every OptimalStates call ticks the
// process-wide counter exactly once.
func TestSolveCountInstrumentation(t *testing.T) {
	d := buildDAG(t, 2, [][2]int{{0, 1}})
	costs := map[*core.Node]Costs{
		d.Nodes()[0]: {Compute: 1, Load: math.Inf(1)},
		d.Nodes()[1]: {Compute: 1, Load: math.Inf(1), Required: true},
	}
	before := SolveCount()
	new(Solver).OptimalStates(d, costs)
	var s Solver
	s.OptimalStates(d, costs)
	if got := SolveCount() - before; got != 2 {
		t.Fatalf("SolveCount delta = %d, want 2", got)
	}
}

// --- dense entry point ---

// sparseOEPInstance builds an n-node DAG of planner-like sparsity (up to
// five parents drawn from the 40 nodes before it) with real-valued costs
// in seconds, a few required sinks, and a cost map restricted to the
// backward slice from them — ancestor-closed, as the planner's live set is.
func sparseOEPInstance(rng *rand.Rand, n int) (*core.DAG, map[*core.Node]Costs) {
	d := core.NewDAG()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = d.MustAddNode(fmt.Sprintf("n%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("op%d", i), true)
		for k := rng.Intn(6); k > 0 && i > 0; k-- {
			lo := max(0, i-40)
			if err := d.AddEdge(nodes[lo+rng.Intn(i-lo)], nodes[i]); err != nil {
				panic(err)
			}
		}
	}
	required := make([]bool, n)
	live := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		required[i] = i == n-1 || (len(nodes[i].Children()) == 0 && rng.Intn(3) > 0)
		live[i] = required[i]
		for _, c := range nodes[i].Children() {
			live[i] = live[i] || live[c.ID]
		}
	}
	costs := make(map[*core.Node]Costs, n)
	for i, node := range nodes {
		c := Costs{
			Compute:  1e-4 + rng.Float64()*2,
			Load:     1e-4 + rng.Float64(),
			Required: required[i],
		}
		switch r := rng.Float64(); {
		case r < 0.15:
			c.MustCompute, c.Load = true, math.Inf(1)
		case r < 0.45:
			c.Load = math.Inf(1)
		}
		if live[i] {
			costs[node] = c
		}
	}
	return d, costs
}

// planWideInstance is the benchmark's plan-wide shape — 50 layers × 20
// nodes, fan-in 5, the last layer required — in the small-edit situation:
// operators cost 50–250 µs, most have a stored result, a few were edited.
func planWideInstance(seed int64) (*core.DAG, map[*core.Node]Costs) {
	const layers, width, fanIn = 50, 20, 5
	rng := rand.New(rand.NewSource(seed))
	d := core.NewDAG()
	costs := make(map[*core.Node]Costs, layers*width)
	var prev []*core.Node
	for l := 0; l < layers; l++ {
		cur := make([]*core.Node, width)
		for w := range cur {
			cur[w] = d.MustAddNode(fmt.Sprintf("n%d_%d", l, w), core.KindExtractor, core.DPR, fmt.Sprintf("op%d_%d", l, w), true)
			for k := 0; k < fanIn && l > 0; k++ {
				if err := d.AddEdge(prev[(w+k)%width], cur[w]); err != nil {
					panic(err)
				}
			}
			c := Costs{Compute: (50 + 200*rng.Float64()) * 1e-6, Load: (20 + 200*rng.Float64()) * 1e-6, Required: l == layers-1}
			switch r := rng.Float64(); {
			case r < 0.02:
				c.MustCompute, c.Load = true, math.Inf(1)
			case r < 0.2:
				c.Load = math.Inf(1)
			}
			costs[cur[w]] = c
		}
		prev = cur
	}
	return d, costs
}

// flatten puts a cost map into the dense form OptimalStatesDense takes.
func flatten(d *core.DAG, costs map[*core.Node]Costs) (order []*core.Node, pos []int32, dense []Costs, solve []bool) {
	order = d.TopoSort()
	pos, dense, solve = make([]int32, len(order)), make([]Costs, len(order)), make([]bool, len(order))
	for i, n := range order {
		pos[n.ID] = int32(i)
		dense[i], solve[i] = costs[n]
	}
	return order, pos, dense, solve
}

// TestDenseMatchesMapWrapper: the dense entry point on a reused Solver and
// the map wrapper on a throwaway one return the same state for every node
// and the same T(W,s), on sparse random DAGs of 200–1000 nodes and on the
// plan-wide shape; the plan is feasible and leaves nodes outside the
// solve mask pruned.
func TestDenseMatchesMapWrapper(t *testing.T) {
	type instance struct {
		label string
		d     *core.DAG
		costs map[*core.Node]Costs
	}
	var instances []instance
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{200, 350, 500, 750, 1000} {
		d, costs := sparseOEPInstance(rng, n)
		instances = append(instances, instance{fmt.Sprintf("sparse-%d", n), d, costs})
	}
	for seed := int64(1); seed <= 3; seed++ {
		d, costs := planWideInstance(seed)
		instances = append(instances, instance{fmt.Sprintf("plan-wide-%d", seed), d, costs})
	}
	var pooled Solver
	for _, in := range instances {
		order, pos, dense, solve := flatten(in.d, in.costs)
		before := SolveCount()
		states := pooled.OptimalStatesDense(order, pos, dense, solve)
		if got := SolveCount() - before; got != 1 {
			t.Fatalf("%s: dense solve ticked SolveCount by %d, want 1", in.label, got)
		}
		want := new(Solver).OptimalStates(in.d, in.costs)
		var total float64
		counts := map[core.State]int{}
		for i, n := range order {
			if states[i] != want.States[n] {
				t.Fatalf("%s node %s: dense %v, map wrapper %v", in.label, n.Name, states[i], want.States[n])
			}
			if !solve[i] && states[i] != core.StatePrune {
				t.Fatalf("%s node %s: outside the solve mask but %v", in.label, n.Name, states[i])
			}
			switch states[i] {
			case core.StateCompute:
				total += dense[i].Compute
			case core.StateLoad:
				total += dense[i].Load
			}
			counts[states[i]]++
		}
		if total != want.Time {
			t.Fatalf("%s: T(W,s) dense %v, map wrapper %v", in.label, total, want.Time)
		}
		if err := CheckFeasible(in.d, in.costs, want.States); err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		if counts[core.StateCompute] == 0 || counts[core.StateLoad] == 0 || counts[core.StatePrune] == 0 {
			t.Fatalf("%s: degenerate instance, state counts %v", in.label, counts)
		}
	}
}

// TestDenseSolveMaskRestrictsTheSolve: masking a node out is the same as
// leaving it out of the cost map — the planner's program slicing depends
// on exactly this.
func TestDenseSolveMaskRestrictsTheSolve(t *testing.T) {
	// Two independent chains a0→a1 and b0→b1; solve only the b chain.
	d := buildDAG(t, 4, [][2]int{{0, 1}, {2, 3}})
	ns := d.Nodes()
	costs := map[*core.Node]Costs{
		ns[0]: {Compute: 1, Load: math.Inf(1)},
		ns[1]: {Compute: 1, Load: math.Inf(1), Required: true},
		ns[2]: {Compute: 5, Load: math.Inf(1)},
		ns[3]: {Compute: 5, Load: 1, Required: true},
	}
	order, pos, dense, solve := flatten(d, costs)
	solve[pos[ns[0].ID]], solve[pos[ns[1].ID]] = false, false
	var s Solver
	states := s.OptimalStatesDense(order, pos, dense, solve)
	want := map[*core.Node]core.State{
		ns[0]: core.StatePrune, ns[1]: core.StatePrune, // masked out, Required or not
		ns[2]: core.StatePrune, ns[3]: core.StateLoad,
	}
	for i, n := range order {
		if states[i] != want[n] {
			t.Fatalf("node %s: %v, want %v", n.Name, states[i], want[n])
		}
	}
}

// TestReusedSolverAllocatesOnlyTheResult pins the planner's steady state:
// a dense solve on a Solver that has seen the shape before allocates the
// returned state slice and nothing else.
func TestReusedSolverAllocatesOnlyTheResult(t *testing.T) {
	d, costs := planWideInstance(1)
	order, pos, dense, solve := flatten(d, costs)
	var s Solver
	s.OptimalStatesDense(order, pos, dense, solve)
	allocs := testing.AllocsPerRun(10, func() {
		s.OptimalStatesDense(order, pos, dense, solve)
	})
	if allocs != 1 {
		t.Fatalf("reused-solver dense solve allocates %v times per run, want 1 (the result)", allocs)
	}
}

var benchStates []core.State

// BenchmarkOptimalStatesPlanWide times the planner's solve step — cost
// tiers, project-selection network, max-flow, min-cut, states — on the
// plan-wide shape with a reused Solver.
func BenchmarkOptimalStatesPlanWide(b *testing.B) {
	d, costs := planWideInstance(1)
	order, pos, dense, solve := flatten(d, costs)
	var s Solver
	s.OptimalStatesDense(order, pos, dense, solve) // size the scratch once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStates = s.OptimalStatesDense(order, pos, dense, solve)
	}
}
