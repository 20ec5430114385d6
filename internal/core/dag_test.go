package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// chain builds a linear DAG a0 → a1 → ... → a(n-1).
func chain(t testing.TB, n int) *DAG {
	t.Helper()
	d := NewDAG()
	var prev *Node
	for i := 0; i < n; i++ {
		node := d.MustAddNode(fmt.Sprintf("a%d", i), KindExtractor, DPR, fmt.Sprintf("op%d", i), true)
		if prev != nil {
			if err := d.AddEdge(prev, node); err != nil {
				t.Fatal(err)
			}
		}
		prev = node
	}
	return d
}

func TestAddNodeDuplicate(t *testing.T) {
	d := NewDAG()
	d.MustAddNode("x", KindSource, DPR, "s", true)
	if _, err := d.AddNode("x", KindSource, DPR, "s", true); err == nil {
		t.Fatal("expected error for duplicate node name")
	}
}

func TestAddNodeEmptyName(t *testing.T) {
	d := NewDAG()
	if _, err := d.AddNode("", KindSource, DPR, "s", true); err == nil {
		t.Fatal("expected error for empty node name")
	}
}

// TestReserve: a reservation sizes a fresh node's edge lists, and is
// refused for a node that already has an edge (it would drop that edge) or
// that belongs to another DAG.
func TestReserve(t *testing.T) {
	d := NewDAG()
	a := d.MustAddNode("a", KindSource, DPR, "a", true)
	b := d.MustAddNode("b", KindExtractor, DPR, "b", true)
	if err := d.Reserve(b, 1, 2); err != nil {
		t.Fatal(err)
	}
	if cap(b.Parents()) != 1 || cap(b.Children()) != 2 {
		t.Fatalf("caps %d/%d, want 1/2", cap(b.Parents()), cap(b.Children()))
	}
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(b, 4, 4); err == nil {
		t.Fatal("reserved over an existing edge")
	}
	if len(b.Parents()) != 1 || len(a.Children()) != 1 {
		t.Fatal("a refused reservation changed the edges")
	}
	if err := NewDAG().Reserve(a, 1, 1); err == nil {
		t.Fatal("reserved a node of another DAG")
	}
}

func TestAddEdgeRejectsCycle(t *testing.T) {
	d := chain(t, 3)
	if err := d.AddEdge(d.Node("a2"), d.Node("a0")); err == nil {
		t.Fatal("expected cycle rejection")
	}
}

// TestAddEdgeRejectsCycleIntoNodeWithChildren: AddEdge skips the
// reachability walk only for a child-less target; edges wired out of
// declaration order (the target already has children) still get it.
func TestAddEdgeRejectsCycleIntoNodeWithChildren(t *testing.T) {
	d := NewDAG()
	var ns []*Node
	for i := 0; i < 4; i++ {
		ns = append(ns, d.MustAddNode(fmt.Sprintf("a%d", i), KindExtractor, DPR, fmt.Sprintf("op%d", i), true))
	}
	// Downstream edges first, so every later target already has children.
	for _, e := range [][2]int{{2, 3}, {1, 2}, {0, 1}} {
		if err := d.AddEdge(ns[e[0]], ns[e[1]]); err != nil {
			t.Fatalf("acyclic edge a%d→a%d rejected: %v", e[0], e[1], err)
		}
	}
	if err := d.AddEdge(ns[3], ns[0]); err == nil {
		t.Fatal("expected rejection of a3→a0 closing the cycle a0→a1→a2→a3")
	}
	if err := d.AddEdge(ns[2], ns[1]); err == nil {
		t.Fatal("expected rejection of a2→a1 closing the cycle a1→a2")
	}
	if err := d.AddEdge(ns[0], ns[2]); err != nil {
		t.Fatalf("forward shortcut a0→a2 rejected: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAddEdgeToChildlessNodeAllocs: wiring an operator to its inputs as
// it is declared (the target has no children yet) costs the two slice
// appends and nothing else — no visited set, no stack.
func TestAddEdgeToChildlessNodeAllocs(t *testing.T) {
	const runs = 200
	d := NewDAG()
	from := d.MustAddNode("src", KindSource, DPR, "src", true)
	targets := make([]*Node, runs+1) // AllocsPerRun adds one warm-up call
	for i := range targets {
		targets[i] = d.MustAddNode(fmt.Sprintf("t%d", i), KindExtractor, DPR, "op", true)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := d.AddEdge(from, targets[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 2 {
		t.Fatalf("AddEdge to a child-less node allocates %v times per call, want ≤ 2 (the two appends)", allocs)
	}
}

func TestAddEdgeRejectsSelfEdge(t *testing.T) {
	d := chain(t, 1)
	if err := d.AddEdge(d.Node("a0"), d.Node("a0")); err == nil {
		t.Fatal("expected self-edge rejection")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	d := chain(t, 2)
	if err := d.AddEdge(d.Node("a0"), d.Node("a1")); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Node("a0").Children()); got != 1 {
		t.Fatalf("duplicate edge created: %d children", got)
	}
}

func TestAddEdgeForeignNode(t *testing.T) {
	d1 := chain(t, 1)
	d2 := chain(t, 1)
	if err := d1.AddEdge(d1.Node("a0"), d2.Node("a0")); err == nil {
		t.Fatal("expected rejection of node from another DAG")
	}
}

func TestTopoSortOrder(t *testing.T) {
	d := NewDAG()
	a := d.MustAddNode("a", KindSource, DPR, "a", true)
	b := d.MustAddNode("b", KindExtractor, DPR, "b", true)
	c := d.MustAddNode("c", KindLearner, LI, "c", true)
	if err := d.AddEdge(a, c); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	order := d.TopoSort()
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	if pos["a"] > pos["c"] || pos["b"] > pos["c"] {
		t.Fatalf("topological order violated: %v", pos)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	d := chain(t, 6)
	first := d.TopoSort()
	for i := 0; i < 5; i++ {
		again := d.TopoSort()
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("TopoSort not deterministic")
			}
		}
	}
}

func TestSliceKeepsOnlyContributors(t *testing.T) {
	// Paper Fig. 3b: raceExt is pruned because it does not contribute to
	// the output.
	d := NewDAG()
	rows := d.MustAddNode("rows", KindScanner, DPR, "rows", true)
	race := d.MustAddNode("raceExt", KindExtractor, DPR, "race", true)
	edu := d.MustAddNode("eduExt", KindExtractor, DPR, "edu", true)
	income := d.MustAddNode("income", KindSynthesizer, DPR, "income", true)
	checked := d.MustAddNode("checked", KindReducer, PPR, "checked", true)
	for _, e := range [][2]*Node{{rows, race}, {rows, edu}, {edu, income}, {income, checked}} {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	d.MarkOutput(checked)
	live := d.Slice()
	if live[race] {
		t.Fatal("raceExt should be pruned (does not reach output)")
	}
	for _, n := range []*Node{rows, edu, income, checked} {
		if !live[n] {
			t.Fatalf("%s should be live", n.Name)
		}
	}
}

func TestSliceNoOutputsKeepsAll(t *testing.T) {
	d := chain(t, 4)
	live := d.Slice()
	for _, n := range d.Nodes() {
		if !live[n] {
			t.Fatalf("node %s should be live when no outputs declared", n.Name)
		}
	}
}

func TestMarkOutputIdempotent(t *testing.T) {
	d := chain(t, 1)
	d.MarkOutput(d.Node("a0"))
	d.MarkOutput(d.Node("a0"))
	if len(d.Outputs()) != 1 {
		t.Fatalf("outputs = %d, want 1", len(d.Outputs()))
	}
}

func TestSignatureStability(t *testing.T) {
	d1 := chain(t, 5)
	d2 := chain(t, 5)
	d1.ComputeSignatures()
	d2.ComputeSignatures()
	for i := range d1.Nodes() {
		if d1.Nodes()[i].ChainSignature() != d2.Nodes()[i].ChainSignature() {
			t.Fatal("identical DAGs must have identical signatures")
		}
	}
}

func TestSignatureChangePropagates(t *testing.T) {
	d1 := chain(t, 5)
	d2 := chain(t, 5)
	d2.Node("a1").OpSignature = "op1-modified"
	d1.ComputeSignatures()
	d2.ComputeSignatures()
	// a0 unchanged; a1..a4 all change (ancestor chain).
	if d1.Node("a0").ChainSignature() != d2.Node("a0").ChainSignature() {
		t.Fatal("a0 should be unaffected")
	}
	for i := 1; i < 5; i++ {
		name := fmt.Sprintf("a%d", i)
		if d1.Node(name).ChainSignature() == d2.Node(name).ChainSignature() {
			t.Fatalf("%s should change when ancestor a1 changes", name)
		}
	}
}

func TestNondeterministicNodeSignatureStable(t *testing.T) {
	// An unchanged nondeterministic operator keeps a stable signature so
	// that its descendants' materializations stay reusable (the paper's
	// MNIST workflow reuses L/I outputs on PPR iterations, §6.5.2). The
	// engine separately refuses to materialize or load the node itself.
	d1 := NewDAG()
	d1.MustAddNode("rff", KindExtractor, DPR, "rff", false)
	d2 := NewDAG()
	d2.MustAddNode("rff", KindExtractor, DPR, "rff", false)
	d1.ComputeSignatures()
	d2.ComputeSignatures()
	if d1.Node("rff").ChainSignature() != d2.Node("rff").ChainSignature() {
		t.Fatal("unchanged nondeterministic node must keep a stable signature")
	}
	if d1.Node("rff").Deterministic {
		t.Fatal("node should be flagged nondeterministic")
	}
}

func TestOriginalNodesIterationZero(t *testing.T) {
	d := chain(t, 3)
	d.ComputeSignatures()
	orig := d.OriginalNodes(nil)
	if len(orig) != 3 {
		t.Fatalf("all nodes original at iteration 0, got %d of 3", len(orig))
	}
}

func TestOriginalNodesDetectsChange(t *testing.T) {
	prev := chain(t, 4)
	cur := chain(t, 4)
	cur.Node("a2").OpSignature = "changed"
	prev.ComputeSignatures()
	cur.ComputeSignatures()
	orig := cur.OriginalNodes(prev)
	if orig[cur.Node("a0")] || orig[cur.Node("a1")] {
		t.Fatal("unchanged prefix marked original")
	}
	if !orig[cur.Node("a2")] || !orig[cur.Node("a3")] {
		t.Fatal("changed node and descendant not marked original")
	}
}

func TestCarryMetrics(t *testing.T) {
	prev := chain(t, 3)
	cur := chain(t, 3)
	cur.Node("a2").OpSignature = "changed"
	prev.ComputeSignatures()
	cur.ComputeSignatures()
	prev.Node("a0").Metrics = Metrics{Compute: time.Second, Load: time.Millisecond, Size: 42, Known: true}
	prev.Node("a2").Metrics = Metrics{Compute: time.Minute, Known: true}
	cur.Track(prev)
	if got := cur.Node("a0").Metrics; !got.Known || got.Compute != time.Second || got.Size != 42 {
		t.Fatalf("metrics not carried for equivalent node: %+v", got)
	}
	if cur.Node("a2").Metrics.Known {
		t.Fatal("metrics carried for non-equivalent node")
	}
}

// Descendants returns the set of all (transitive) descendants of n.
func Descendants(n *Node) map[*Node]bool {
	desc := make(map[*Node]bool)
	var visit func(*Node)
	visit = func(m *Node) {
		for _, c := range m.children {
			if !desc[c] {
				desc[c] = true
				visit(c)
			}
		}
	}
	visit(n)
	return desc
}

func TestAncestorsDescendants(t *testing.T) {
	d := chain(t, 4)
	anc := Ancestors(d.Node("a3"))
	if len(anc) != 3 {
		t.Fatalf("ancestors of a3 = %d, want 3", len(anc))
	}
	desc := Descendants(d.Node("a0"))
	if len(desc) != 3 {
		t.Fatalf("descendants of a0 = %d, want 3", len(desc))
	}
}

func TestValidateDetectsOK(t *testing.T) {
	d := chain(t, 5)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndComponentStrings(t *testing.T) {
	if KindLearner.String() != "Learner" {
		t.Fatalf("Kind string = %q", KindLearner.String())
	}
	if LI.String() != "L/I" {
		t.Fatalf("Component string = %q", LI.String())
	}
	if StatePrune.String() != "Sp" {
		t.Fatalf("State string = %q", StatePrune.String())
	}
	if Kind(99).String() == "" || Component(99).String() == "" || State(99).String() == "" {
		t.Fatal("out-of-range enums must still stringify")
	}
}

// randomDAG builds a random DAG with n nodes where edges only go from lower
// to higher insertion index.
func randomDAG(rng *rand.Rand, n int) *DAG {
	d := NewDAG()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = d.MustAddNode(fmt.Sprintf("n%d", i), KindExtractor, DPR, fmt.Sprintf("op%d", i), true)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				if err := d.AddEdge(nodes[i], nodes[j]); err != nil {
					panic(err)
				}
			}
		}
	}
	return d
}

// TestQuickTopoSortIsValid: on random DAGs, every edge goes forward in the
// topological order, and every node appears exactly once.
func TestQuickTopoSortIsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(rng, 2+rng.Intn(12))
		order := d.TopoSort()
		if len(order) != d.Len() {
			return false
		}
		pos := make(map[*Node]int)
		for i, n := range order {
			pos[n] = i
		}
		for _, n := range d.Nodes() {
			for _, c := range n.Children() {
				if pos[n] >= pos[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSignatureSensitivity: modifying a random node's operator
// signature changes the chain signature of exactly that node and its
// descendants.
func TestQuickSignatureSensitivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		structSeed := rng.Int63()
		d1 := randomDAG(rand.New(rand.NewSource(structSeed)), n)
		d2 := randomDAG(rand.New(rand.NewSource(structSeed)), n)
		victim := rng.Intn(n)
		d2.Nodes()[victim].OpSignature += "-x"
		d1.ComputeSignatures()
		d2.ComputeSignatures()
		changed := Descendants(d1.Nodes()[victim])
		changed[d1.Nodes()[victim]] = true
		for i := 0; i < n; i++ {
			same := d1.Nodes()[i].ChainSignature() == d2.Nodes()[i].ChainSignature()
			if changed[d1.Nodes()[i]] == same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValidateRandomDAGs: randomly generated DAGs always validate.
func TestQuickValidateRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(rng, 1+rng.Intn(15))
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
