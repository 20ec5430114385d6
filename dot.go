package helix

import (
	"fmt"
	"sort"
	"strings"

	"helix/internal/core"
)

// PlanDOT renders the workflow's DAG annotated with an execution plan's
// decisions rather than a finished run's outcomes: each node shows its
// assigned state and projected cumulative time C(n), pruned nodes are
// grayed out, loads are blue-bordered, mandatory-materialization outputs
// carry the paper's drum marker, and every node's decision rationale is
// attached as a Graphviz tooltip. The plan should come from Session.Plan
// (or Result.Plan) for this same workflow; nodes are matched by name.
func (w *Workflow) PlanDOT(p *Plan) (string, error) {
	return w.renderDOT(func(n *core.Node) (string, []string) {
		if p == nil {
			return "", nil
		}
		np := p.ByName(n.Name)
		if np == nil {
			return "", nil
		}
		label := fmt.Sprintf("\\n%v C(n)=%.3fs", np.State, np.ProjectedCum)
		attrs := stateStyle(np.State)
		if np.MandatoryMat {
			label += "\\n⛁ mandatory" // the paper's drum
		}
		if np.FuseGroup >= 0 {
			// Fused-run members render dashed with a shared group marker:
			// the run executes as one scheduled unit and only its tail's
			// value is ever built.
			label += fmt.Sprintf("\\n≋ fused #%d", np.FuseGroup)
			attrs = append(attrs, `style="filled,dashed"`)
		}
		attrs = append(attrs, fmt.Sprintf("tooltip=%q", np.Rationale))
		return label, attrs
	})
}

// stateStyle returns the extra node attributes shared by both renderings:
// pruned nodes gray out, loads get a blue border.
func stateStyle(s core.State) []string {
	switch s {
	case core.StatePrune:
		return []string{`fillcolor="#dddddd"`, `fontcolor="#888888"`}
	case core.StateLoad:
		return []string{`penwidth=2`, `color="#2266cc"`}
	}
	return nil
}

// renderDOT compiles the workflow and emits the DOT graph, delegating
// per-node annotation (label suffix + extra attributes) to annotate.
func (w *Workflow) renderDOT(annotate func(*core.Node) (string, []string)) (string, error) {
	prog, err := w.Compile()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", w.name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"Helvetica\"];\n")

	nodes := append([]*core.Node(nil), prog.DAG.Nodes()...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	for _, n := range nodes {
		color := "#d9c7e8" // DPR purple
		if n.Component != core.DPR {
			color = "#f8cf9e" // L/I + PPR orange
		}
		label := fmt.Sprintf("%s\\n%s", n.Name, n.Kind)
		attrs := []string{fmt.Sprintf("fillcolor=%q", color)}
		extraLabel, extraAttrs := annotate(n)
		label += extraLabel
		attrs = append(attrs, extraAttrs...)
		for _, o := range prog.DAG.Outputs() {
			if o == n {
				attrs = append(attrs, "peripheries=2")
			}
		}
		attrs = append(attrs, fmt.Sprintf("label=%q", label))
		fmt.Fprintf(&b, "  %q [%s];\n", n.Name, strings.Join(attrs, ", "))
	}
	for _, n := range nodes {
		children := append([]*core.Node(nil), n.Children()...)
		sort.Slice(children, func(i, j int) bool { return children[i].Name < children[j].Name })
		for _, c := range children {
			fmt.Fprintf(&b, "  %q -> %q;\n", n.Name, c.Name)
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}
