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
// Brute-force reference implementations of both problems live in the
// package's tests (oracles_test.go), for property-based testing on small
// inputs.
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

// solvePSPInto is SolvePSP (oracles_test.go) over a caller-provided graph (already sized to
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
