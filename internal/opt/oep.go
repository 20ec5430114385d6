package opt

import (
	"fmt"
	"math"
	"sync/atomic"

	"helix/internal/core"

	"helix/internal/maxflow"
)

// solveCount tallies OPT-EXEC-PLAN max-flow solves process-wide. The plan
// cache's acceptance contract — a fingerprint hit performs zero solves —
// is asserted against deltas of this counter.
var solveCount atomic.Int64

// SolveCount reports the cumulative number of OPT-EXEC-PLAN solves
// (Solver.OptimalStatesDense invocations, directly or through
// OptimalStates; each is one max-flow computation) performed by the
// process so far.
func SolveCount() int64 { return solveCount.Load() }

// Costs holds the per-node inputs to OPT-EXEC-PLAN (paper §5.1).
// Times are in seconds (float64 for solver arithmetic).
type Costs struct {
	// Compute is c_i: the time to compute the node from in-memory inputs.
	Compute float64
	// Load is l_i: the time to load the node's equivalent materialization
	// from disk. math.Inf(1) when no equivalent materialization exists
	// (Definition 3).
	Load float64
	// MustCompute enforces Constraint 1: original operators are recomputed.
	MustCompute bool
	// Required forbids pruning (used for outputs that have no previously
	// recorded result: they must be produced one way or another).
	Required bool
}

// Plan is the result of OEP: a state per node plus the projected run time
// T(W, s) of Equation 1.
type Plan struct {
	States map[*core.Node]core.State
	// Time is the projected run time in seconds under the true costs.
	Time float64
}

// Solver solves OPT-EXEC-PLAN instances. The zero value is ready to use;
// a Solver retained across iterations (the planner pools one) reuses its
// flow network and profit/prerequisite/index buffers between solves, so a
// steady-state solve allocates only its result. A Solver is not safe for
// concurrent use.
type Solver struct {
	g       *maxflow.Graph
	slot    []int32 // topological index → position among the solved nodes, -1 outside
	profits []float64
	prereqs []Prereq
}

// OptimalStatesDense solves OPT-EXEC-PLAN (Problem 1) optimally via
// Algorithm 1: the linear-time reduction to the project selection
// problem, solved by min-cut. It is the one solver; everything is indexed
// by topological position, the form the planner already holds its inputs
// in: order is the DAG in topological order, pos maps a node's ID to its
// index in order, costs[i] belongs to order[i], and solve[i] selects the
// nodes that take part. Nodes with solve[i] false are outside the program
// slice (or outside the dirty components of a partial re-solve) and come
// back pruned; their costs are ignored. The result holds one state per
// node of order.
//
// The reduction builds, per node n_i, project a_i with profit -l_i and
// project b_i with profit l_i - c_i, with a_i prerequisite to b_i, and
// a_i prerequisite to b_j for every child n_j of n_i. Selecting {a_i, b_i}
// ⇔ Compute, {a_i} ⇔ Load, {} ⇔ Prune.
//
// Infinite loads, forced computes and required nodes are encoded with
// tiered finite magnitudes (bigM, reward) so that the flow network stays
// finite; the tiers are separated by more than the total true cost so they
// can never be traded against real savings.
func (s *Solver) OptimalStatesDense(order []*core.Node, pos []int32, costs []Costs, solve []bool) []core.State {
	solveCount.Add(1)
	// Index the participating nodes and total their true costs.
	if cap(s.slot) < len(order) {
		s.slot = make([]int32, len(order))
	}
	slot := s.slot[:len(order)]
	solved := 0
	var sumTrue float64
	for i := range order {
		if !solve[i] {
			slot[i] = -1
			continue
		}
		slot[i] = int32(solved)
		solved++
		sumTrue += costs[i].Compute
		if !math.IsInf(costs[i].Load, 1) {
			sumTrue += costs[i].Load
		}
	}

	// Tiered magnitudes: sumTrue < bigM < reward.
	bigM := (sumTrue + 1) * 1e3
	// reward dominates the worst-case drag of forcing a node: even if every
	// node in the instance must be loaded at bigM cost to satisfy the
	// forced selection, the reward still wins. Kept within ~9 decimal
	// orders of the true costs so float64 additions stay exact enough.
	reward := bigM * float64(solved+1) * 1e3

	// Projects: a_i at 2i, b_i at 2i+1. Constraint 1 (MustCompute) is
	// encoded as a dominating reward on b_i (selecting b_i ⇔ Compute);
	// Required as a dominating reward on a_i (selecting a_i ⇔ not pruned).
	if cap(s.profits) < 2*solved {
		s.profits = make([]float64, 2*solved)
	}
	profits := s.profits[:2*solved]
	prereqs := s.prereqs[:0]
	for i, n := range order {
		if slot[i] < 0 {
			continue
		}
		a, b := 2*int(slot[i]), 2*int(slot[i])+1
		c := costs[i]
		// Infinite loads become bigM: never attractive, but finite for the
		// flow network.
		load := c.Load
		if math.IsInf(load, 1) || c.MustCompute {
			load = bigM
		}
		profits[a] = -load
		profits[b] = load - c.Compute
		if c.MustCompute {
			profits[b] += reward
		}
		if c.Required {
			profits[a] += reward
		}
		prereqs = append(prereqs, Prereq{Project: b, Requires: a})
		for _, child := range n.Children() {
			j := slot[pos[child.ID]]
			if j < 0 {
				continue // child outside the slice
			}
			// Computing child b_j requires parent not pruned: a_i.
			prereqs = append(prereqs, Prereq{Project: 2*int(j) + 1, Requires: a})
		}
	}
	s.prereqs = prereqs

	if s.g == nil {
		s.g = maxflow.New(len(profits) + 2)
	} else {
		s.g.Reset(len(profits) + 2)
	}
	selected := solvePSPInto(s.g, profits, prereqs)

	states := make([]core.State, len(order))
	for i := range states {
		a := 2 * int(slot[i])
		switch {
		case slot[i] < 0 || !selected[a]:
			states[i] = core.StatePrune
		case selected[a+1]:
			states[i] = core.StateCompute
		default:
			states[i] = core.StateLoad
		}
	}
	return states
}

// OptimalStates is OptimalStatesDense for callers that hold their costs in
// a map: nodes absent from costs are outside the program slice and are
// pruned outright. It flattens the map into topological order, solves,
// and reports the states as a map plus T(W, s), summed in topological
// order.
func (s *Solver) OptimalStates(d *core.DAG, costs map[*core.Node]Costs) Plan {
	order := d.TopoSort()
	pos := make([]int32, len(order))
	dense := make([]Costs, len(order))
	solve := make([]bool, len(order))
	for i, n := range order {
		pos[n.ID] = int32(i)
		dense[i], solve[i] = costs[n]
	}
	states := s.OptimalStatesDense(order, pos, dense, solve)
	plan := Plan{States: make(map[*core.Node]core.State, len(order))}
	for i, n := range order {
		plan.States[n] = states[i]
		switch states[i] {
		case core.StateCompute:
			plan.Time += dense[i].Compute
		case core.StateLoad:
			plan.Time += dense[i].Load
		}
	}
	return plan
}

// OptimalStates solves OPT-EXEC-PLAN with a throwaway Solver. Callers that
// plan every iteration should retain a Solver and call its method instead,
// reusing the flow network and buffers across solves.
func OptimalStates(d *core.DAG, costs map[*core.Node]Costs) Plan {
	var s Solver
	return s.OptimalStates(d, costs)
}

// PlanTime evaluates Equation 1: the total run time of a state assignment
// under the true costs. Pruned nodes and nodes outside costs contribute 0.
func PlanTime(states map[*core.Node]core.State, costs map[*core.Node]Costs) float64 {
	var total float64
	for n, s := range states {
		c, ok := costs[n]
		if !ok {
			continue
		}
		switch s {
		case core.StateCompute:
			total += c.Compute
		case core.StateLoad:
			total += c.Load
		}
	}
	return total
}

// CheckFeasible verifies that a state assignment satisfies the OEP
// constraints: Constraint 1 (MustCompute ⇒ Compute), Constraint 2
// (Compute ⇒ no parent pruned), loads only with finite load cost, and
// Required ⇒ not pruned. Nodes outside costs must be pruned.
func CheckFeasible(d *core.DAG, costs map[*core.Node]Costs, states map[*core.Node]core.State) error {
	for _, n := range d.Nodes() {
		s, ok := states[n]
		if !ok {
			return fmt.Errorf("opt: node %q has no state", n.Name)
		}
		c, inCosts := costs[n]
		if !inCosts {
			if s != core.StatePrune {
				return fmt.Errorf("opt: node %q outside slice has state %v", n.Name, s)
			}
			continue
		}
		if c.MustCompute && s != core.StateCompute {
			return fmt.Errorf("opt: original node %q has state %v, want Sc (Constraint 1)", n.Name, s)
		}
		if c.Required && s == core.StatePrune {
			return fmt.Errorf("opt: required node %q pruned", n.Name)
		}
		if s == core.StateLoad && math.IsInf(c.Load, 1) {
			return fmt.Errorf("opt: node %q loaded without equivalent materialization", n.Name)
		}
		if s == core.StateCompute {
			for _, p := range n.Parents() {
				if states[p] == core.StatePrune {
					return fmt.Errorf("opt: node %q computed but parent %q pruned (Constraint 2)", n.Name, p.Name)
				}
			}
		}
	}
	return nil
}

// GreedyStates is an ablation baseline for OEP: a local rule that loads a
// node iff loading is cheaper than computing it (ignoring cascading
// pruning), then prunes ancestors that no computed node depends on. It is
// feasible but not optimal; BenchmarkAblation_OEPvsGreedy quantifies the
// gap.
func GreedyStates(d *core.DAG, costs map[*core.Node]Costs) Plan {
	states := make(map[*core.Node]core.State, d.Len())
	order := d.TopoSort()
	// First pass: local load-vs-compute choice.
	for _, n := range order {
		c, ok := costs[n]
		switch {
		case !ok:
			states[n] = core.StatePrune
		case c.MustCompute:
			states[n] = core.StateCompute
		case c.Load < c.Compute:
			states[n] = core.StateLoad
		default:
			states[n] = core.StateCompute
		}
	}
	// Second pass (reverse topo): prune nodes no computed child needs, and
	// that are not required.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if states[n] != core.StateLoad && states[n] != core.StateCompute {
			continue
		}
		c := costs[n]
		if c.MustCompute || c.Required {
			continue
		}
		needed := false
		for _, ch := range n.Children() {
			if states[ch] == core.StateCompute {
				needed = true
				break
			}
		}
		if !needed {
			states[n] = core.StatePrune
		}
	}
	// Third pass: pruning may have orphaned computed nodes whose parents
	// got pruned. Fix by re-promoting parents of computed nodes to Load or
	// Compute until a fixed point (bounded by |N| rounds).
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if states[n] != core.StateCompute {
				continue
			}
			for _, p := range n.Parents() {
				if states[p] != core.StatePrune {
					continue
				}
				c := costs[p]
				if !math.IsInf(c.Load, 1) && c.Load < c.Compute {
					states[p] = core.StateLoad
				} else {
					states[p] = core.StateCompute
				}
				changed = true
			}
		}
	}
	return Plan{States: states, Time: PlanTime(states, costs)}
}
