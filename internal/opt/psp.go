// Package opt implements HELIX's two optimization problems (paper §5):
//
//   - OPT-EXEC-PLAN (OEP, §5.2): given previously materialized results,
//     assign each workflow node a state in {Compute, Load, Prune} minimizing
//     the workflow run time. Solved optimally in PTIME by reduction to the
//     PROJECT SELECTION PROBLEM, which is solved by MAX-FLOW/MIN-CUT
//     (Algorithm 1).
//
//   - OPT-MAT-PLAN (OMP, §5.3): choose which intermediate results to
//     materialize during execution to accelerate future iterations. NP-hard
//     (Theorem 3); approximated by the streaming heuristic of Algorithm 2.
//
// Brute-force reference implementations of both problems are provided for
// property-based testing on small inputs.
//
// helixlint (plandeterminism) holds this package to byte-stable output:
// state assignments and materialization picks feed the plan fingerprint,
// so equal inputs must decide identically.
//
//lint:deterministic
package opt

import "helix/internal/maxflow"

// Prereq records that selecting Project requires selecting Requires.
type Prereq struct {
	Project, Requires int
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

// solvePSPInto is SolvePSP over a caller-provided graph (already sized to
// len(profits)+2 nodes, typically via Reset), so iterative callers can
// amortize the flow network across solves. The selection it returns is
// the graph's own min-cut scratch: valid until g is reset or cut again.
func solvePSPInto(g *maxflow.Graph, profits []float64, prereqs []Prereq) []bool {
	n := len(profits)
	s, t := n, n+1
	for i, p := range profits {
		switch {
		case p > 0:
			g.AddEdge(s, i, p)
		case p < 0:
			g.AddEdge(i, t, -p)
		}
	}
	for _, pr := range prereqs {
		g.AddEdge(pr.Project, pr.Requires, maxflow.Inf)
	}
	g.MaxFlow(s, t)
	return g.MinCut(s)[:n]
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
