package opt

import (
	"math"

	"helix/internal/core"
	"helix/internal/maxflow"
)

// The exponential and textbook reference solvers the property tests check
// the planner against. No program calls them.

// BruteForceStates solves OPT-EXEC-PLAN by exhaustive enumeration of all
// 3^n state assignments. Exponential — test oracle only (n ≲ 12).
func BruteForceStates(d *core.DAG, costs map[*core.Node]Costs) Plan {
	var live []*core.Node
	for _, n := range d.Nodes() {
		if _, ok := costs[n]; ok {
			live = append(live, n)
		}
	}
	best := Plan{Time: math.Inf(1)}
	assign := make([]core.State, len(live))
	var rec func(i int)
	rec = func(i int) {
		if i == len(live) {
			states := make(map[*core.Node]core.State, d.Len())
			for _, n := range d.Nodes() {
				states[n] = core.StatePrune
			}
			for j, n := range live {
				states[n] = assign[j]
			}
			if CheckFeasible(d, costs, states) != nil {
				return
			}
			t := PlanTime(states, costs)
			if t < best.Time {
				best = Plan{States: states, Time: t}
			}
			return
		}
		for _, s := range []core.State{core.StateCompute, core.StateLoad, core.StatePrune} {
			assign[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// ExactOMP solves OPT-MAT-PLAN exactly by enumerating all 2^n
// materialization subsets, under the paper's simplifying assumption for the
// NP-hardness proof (Eq. 11): the next iteration's workflow is identical
// and every node is reusable. For each candidate subset M it evaluates
// Equation 3, T_M(W_t) = Σ_{n∈M} l_n + T*(W_{t+1} | M materialized), using
// the optimal OEP solver for the second term. Exponential — test oracle and
// ablation reference only.
func ExactOMP(d *core.DAG, costs map[*core.Node]Costs, sizes map[*core.Node]int64, budget int64) (best map[*core.Node]bool, bestTime float64) {
	nodes := d.Nodes()
	bestTime = math.Inf(1)
	n := len(nodes)
	for mask := 0; mask < 1<<n; mask++ {
		var matTime float64
		var used int64
		m := make(map[*core.Node]bool)
		ok := true
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			node := nodes[i]
			c, inCosts := costs[node]
			if !inCosts || math.IsInf(c.Load, 1) {
				ok = false // cannot materialize a node with unknown load cost
				break
			}
			m[node] = true
			matTime += c.Load // write time ≈ load time (paper §5.3)
			used += sizes[node]
		}
		if !ok || (budget >= 0 && used > budget) {
			continue
		}
		// Next-iteration costs: identical workflow, loads available only
		// for materialized nodes.
		next := make(map[*core.Node]Costs, len(costs))
		for node, c := range costs {
			nc := Costs{Compute: c.Compute, Load: math.Inf(1), Required: c.Required}
			if m[node] {
				nc.Load = c.Load
			}
			next[node] = nc
		}
		t := matTime + new(Solver).OptimalStates(d, next).Time
		if t < bestTime {
			bestTime = t
			best = m
		}
	}
	return best, bestTime
}

// SolvePSP solves the PROJECT SELECTION PROBLEM (paper Problem 2): given
// per-project profits (positive or negative) and prerequisite constraints,
// select the subset of projects with maximum total profit such that every
// prerequisite of a selected project is also selected. Returns the
// selection as a boolean slice indexed by project.
//
// The reduction to MIN-CUT is standard [Kleinberg & Tardos §7.11]: source
// s connects to positive-profit projects with capacity = profit; negative-
// profit projects connect to sink t with capacity = -profit; prerequisite
// pairs get infinite-capacity edges project→prerequisite. The source side
// of a minimum cut is an optimal selection.
func SolvePSP(profits []float64, prereqs []Prereq) []bool {
	return solvePSPInto(maxflow.New(len(profits)+2), profits, prereqs)
}

// PSPValue returns the total profit of a selection, or false if the
// selection violates a prerequisite constraint.
func PSPValue(profits []float64, prereqs []Prereq, selected []bool) (float64, bool) {
	for _, pr := range prereqs {
		if selected[pr.Project] && !selected[pr.Requires] {
			return 0, false
		}
	}
	var total float64
	for i, sel := range selected {
		if sel {
			total += profits[i]
		}
	}
	return total, true
}

// CumulativeTimes computes C(n_i) per Definition 6 for every node, given
// each node's own elapsed time t(n_i) (compute time if computed, load time
// if loaded, 0 if pruned): C(n_i) = t(n_i) + Σ_{n_j ∈ ancestors(n_i)} t(n_j).
func CumulativeTimes(d *core.DAG, own map[*core.Node]float64) map[*core.Node]float64 {
	cum := make(map[*core.Node]float64, d.Len())
	for _, n := range d.TopoSort() {
		total := own[n]
		for anc := range core.Ancestors(n) {
			total += own[anc]
		}
		cum[n] = total
	}
	return cum
}
