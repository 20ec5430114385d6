package plan

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"helix/internal/core"
)

// Summary returns a one-line digest of the plan: node counts per state,
// slice size, the projected run time of Equation 1, and — when the plan
// cache answered — that every decision was reused instead of solved.
func (p *Plan) Summary() string {
	total := len(p.Nodes)
	liveCount := p.Counts[core.StateCompute] + p.Counts[core.StateLoad] + p.Counts[core.StatePrune]
	s := fmt.Sprintf(
		"execution plan — iteration %d: %d nodes, %d live (%d Sc, %d Sl, %d Sp), %d sliced away; projected T(W,s) = %.3fs",
		p.Iteration, total, liveCount,
		p.Counts[core.StateCompute], p.Counts[core.StateLoad], p.Counts[core.StatePrune],
		total-liveCount, p.ProjectedSeconds)
	if p.Cache == CacheHit {
		s += fmt.Sprintf("; plan cache hit [%s]: all %d decisions reused, no solve", p.Fingerprint, total)
	}
	if len(p.Fused) > 0 {
		fusedNodes := 0
		for _, g := range p.Fused {
			fusedNodes += len(g)
		}
		s += fmt.Sprintf("; %d fused run(s) covering %d nodes", len(p.Fused), fusedNodes)
	}
	return s
}

// Explain renders the plan as a per-node decision table in topological
// order: component, assigned state, originality, mandatory-materialization
// marker, the costs the solver weighed (c_i, l_i), the projected
// cumulative time C(n), and the rationale for the decision. The output is
// deterministic for a given plan, so it can be golden-file tested.
func (p *Plan) Explain() string {
	var b strings.Builder
	b.WriteString(p.Summary())
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s %-4s %-5s %-4s %-4s %9s %9s %9s  %s\n",
		"node", "comp", "state", "orig", "mat", "c(s)", "l(s)", "C(n)", "why")
	for _, np := range p.Nodes {
		orig := "-"
		if np.Original {
			orig = "yes"
		}
		mat := "-"
		if np.MandatoryMat {
			mat = "out"
		}
		why := np.Rationale
		// Mark fused-run membership: the group index plus the member's
		// role — interiors stream row-by-row and never build a value, the
		// tail builds the run's single output. The merged signature's
		// prefix ties the table to Plan.FusedSigs.
		if np.FuseGroup >= 0 {
			role := "interior"
			g := p.Fused[np.FuseGroup]
			if np.Index == g[0] {
				role = "head"
			}
			if np.Index == g[len(g)-1] {
				role = "tail"
			}
			why += fmt.Sprintf(" [fused #%d %s %s]", np.FuseGroup, role, p.FusedSigs[np.FuseGroup][:8])
		}
		fmt.Fprintf(&b, "%-22s %-4s %-5s %-4s %-4s %s %s %s  %s\n",
			np.Node.Name, np.Node.Component, np.State, orig, mat,
			fmtSecs(np.Costs.Compute), fmtSecs(np.Costs.Load), fmtSecs(np.ProjectedCum),
			why)
	}
	return b.String()
}

// fmtSecs renders a seconds value for the decision table, right-aligned
// to 9 display columns. Infinite load costs (no equivalent
// materialization) print as ∞ — padded by rune count, since %9s pads by
// bytes and would leave the multi-byte ∞ cell two columns narrow.
func fmtSecs(s float64) string {
	v := fmt.Sprintf("%.3f", s)
	if math.IsInf(s, 1) {
		v = "∞"
	}
	if pad := 9 - utf8.RuneCountInString(v); pad > 0 {
		v = strings.Repeat(" ", pad) + v
	}
	return v
}
