// Package core defines the Workflow DAG — the intermediate representation
// that HELIX compiles HML programs into (paper §4). Nodes correspond to
// operator outputs; edges correspond to input→output relationships between
// operators. The package also implements change tracking across iterations
// via representational equivalence (Definition 2), and the program-slicing
// pruning of §5.4.
//
// # Change tracking
//
// DAG.Track is the one walk that compares an iteration's DAG with the
// previous one: it computes every chain signature, marks each node original
// or not (Node.Original), and carries the metrics of equivalent nodes
// forward. A node whose same-named predecessor has the same operator
// signature and parents with equal chain signatures in the same order takes
// the predecessor's chain signature without hashing — the hash of equal
// bytes — so a small edit hashes only the nodes downstream of it. Which
// previous node is equivalent to which comes from one lookup per node in
// the previous DAG's signature index, whose last-wins rule for repeated
// signatures (hand-built DAGs may repeat an operator signature across
// names) is the contract OriginalNodes and the carried metrics keep. The
// same pass gives originality and the carried metrics, so no caller builds
// an index or an original-node set of its own.
package core

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"
)

// Kind classifies an operator by its HML interface (paper §3.2.2).
type Kind int

const (
	// KindSource is a data source on disk (paper: FileSource); root nodes.
	KindSource Kind = iota
	// KindScanner implements parsing ∈ F (flatMap over records).
	KindScanner
	// KindExtractor implements feature extraction/transformation ∈ F.
	KindExtractor
	// KindSynthesizer implements join ∈ F and example assembly.
	KindSynthesizer
	// KindLearner implements learning and inference ∈ F.
	KindLearner
	// KindReducer implements reduce ∈ F (PPR).
	KindReducer
)

var kindNames = [...]string{"Source", "Scanner", "Extractor", "Synthesizer", "Learner", "Reducer"}

// String returns the HML interface name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Component classifies an operator into the three workflow components of
// the paper (§2): data preprocessing, learning/inference, postprocessing.
type Component int

const (
	// DPR is data preprocessing.
	DPR Component = iota
	// LI is learning/inference.
	LI
	// PPR is postprocessing.
	PPR
)

var componentNames = [...]string{"DPR", "L/I", "PPR"}

// String returns the paper's abbreviation for the component.
func (c Component) String() string {
	if c < 0 || int(c) >= len(componentNames) {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// State is the execution state assigned to a node by the DAG optimizer
// (paper §5.1): load from disk, compute from inputs, or prune entirely.
type State int

const (
	// StateCompute (S_c): compute the node from its in-memory inputs.
	StateCompute State = iota
	// StateLoad (S_l): load the node's result from disk.
	StateLoad
	// StatePrune (S_p): skip the node (neither loaded nor computed).
	StatePrune
)

var stateNames = [...]string{"Sc", "Sl", "Sp"}

// String returns the paper's notation for the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Metrics records the operator statistics used by the optimizers
// (paper §5.1): compute time c_i, load time l_i, and on-disk size s_i.
// Compute and Load are point estimates — when fed through ObserveCompute/
// ObserveLoad they are the decayed means of the per-signature online
// estimators carried alongside, rather than last-run values.
type Metrics struct {
	Compute time.Duration // c_i: time to compute from in-memory inputs
	Load    time.Duration // l_i: time to load materialized result from disk
	Size    int64         // s_i: bytes on disk when materialized
	Known   bool          // whether metrics come from a measured run

	// ComputeStat and LoadStat are the decayed online estimators behind
	// the point estimates above; they carry across iterations (and
	// through session snapshots) with the rest of the struct.
	ComputeStat CostStat
	LoadStat    CostStat
}

// Node is one vertex of the Workflow DAG: the output of a single operator.
type Node struct {
	ID        int
	Name      string
	Kind      Kind
	Component Component

	// OpSignature identifies the operator's own declaration: name, kind,
	// parameters, and UDF version tag. It deliberately excludes ancestry.
	OpSignature string

	// Deterministic reports whether the operator computes identical output
	// given identical input. Nondeterministic operators (e.g. randomized
	// feature maps without a fixed seed, as in the paper's MNIST workflow)
	// never have equivalent materializations and are always recomputed.
	Deterministic bool

	// Streamable reports that the operator is a unary row-wise
	// transformation (map / flatMap / filter over its single input's rows)
	// with a registered per-row implementation, making it a candidate for
	// operator fusion: the planner may place it inside a fused run whose
	// interior collections are never fully built. Set by the DSL compiler
	// for operators declared through the streaming helpers.
	Streamable bool

	// Metrics from the most recent execution (or a previous iteration, per
	// §5.2: statistics of equivalent nodes carry over exactly).
	Metrics Metrics

	parents  []*Node
	children []*Node

	// chainSig is the chained signature implementing Definition 2; computed
	// by DAG.Track (ComputeSignatures is Track without a previous DAG).
	chainSig string
	// sigOp is the operator signature chainSig was computed from: a later
	// edit of OpSignature must not let another DAG reuse a stale chainSig.
	sigOp string
	// original is Track's verdict: no node of the previous DAG has an equal
	// chain signature.
	original bool
}

// Parents returns the node's direct inputs in insertion order. The returned
// slice must not be modified.
func (n *Node) Parents() []*Node { return n.parents }

// Children returns the node's direct consumers in insertion order. The
// returned slice must not be modified.
func (n *Node) Children() []*Node { return n.children }

// ChainSignature returns the equivalence signature of the node: a hash of
// its own operator signature chained with the signatures of all ancestors.
// Two nodes across iterations with equal chain signatures are equivalent in
// the sense of Definition 2 (same operator declaration, equivalent parents).
// Empty until DAG.ComputeSignatures has run.
func (n *Node) ChainSignature() string { return n.chainSig }

// Original reports whether the last DAG.Track found no equivalent of the
// node in the previous DAG (Definition 2) — what OriginalNodes(prev) would
// say of it. Every node is original after a Track without a previous DAG.
func (n *Node) Original() bool { return n.original }

// DAG is a workflow DAG G_W = (N, E). Nodes are identified by unique names
// (the HML variable bound with refers_to).
type DAG struct {
	nodes   []*Node
	byName  map[string]*Node
	outputs []*Node
	// bySig is the lazily built chain-signature index used when this DAG
	// serves as the previous iteration for change tracking; invalidated
	// whenever signatures are recomputed. With equal signatures (identical
	// duplicated subgraphs) the last node wins, matching the historical
	// map-build behavior.
	bySig map[string]*Node
	// valid records a successful Validate; signed records a Track whose
	// signatures still describe the DAG's structure, the condition for
	// another DAG's walk to reuse them. Every mutation clears both.
	valid, signed bool
}

// sigIndex returns the signature→node index, building it on first use.
// Valid only after Track (or FromSnapshot) populated the chain signatures.
func (d *DAG) sigIndex() map[string]*Node {
	if d.bySig == nil {
		d.bySig = make(map[string]*Node, len(d.nodes))
		for _, n := range d.nodes {
			d.bySig[n.chainSig] = n
		}
	}
	return d.bySig
}

// NewDAG returns an empty workflow DAG.
func NewDAG() *DAG {
	return &DAG{byName: make(map[string]*Node)}
}

// AddNode creates a node and adds it to the DAG. It returns an error if the
// name is already taken.
func (d *DAG) AddNode(name string, kind Kind, comp Component, opSig string, deterministic bool) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty node name")
	}
	if _, ok := d.byName[name]; ok {
		return nil, fmt.Errorf("core: duplicate node %q", name)
	}
	n := &Node{
		ID:            len(d.nodes),
		Name:          name,
		Kind:          kind,
		Component:     comp,
		OpSignature:   opSig,
		Deterministic: deterministic,
	}
	d.nodes = append(d.nodes, n)
	d.byName[name] = n
	d.valid, d.signed = false, false
	return n, nil
}

// Reserve sizes n's parent and child lists for the given degrees, so wiring
// a node whose degree is known up front appends without growing. A list
// that outgrows its reservation grows as usual. It refuses a node of
// another DAG or one that already has an edge.
func (d *DAG) Reserve(n *Node, parents, children int) error {
	if n == nil || !d.owns(n) {
		return fmt.Errorf("core: reserve: node not in this DAG")
	}
	if len(n.parents) > 0 || len(n.children) > 0 {
		return fmt.Errorf("core: reserve: %q already has edges", n.Name)
	}
	n.parents = make([]*Node, 0, parents)
	n.children = make([]*Node, 0, children)
	return nil
}

// MustAddNode is AddNode but panics on error; for use in tests and
// generated code where names are statically unique.
func (d *DAG) MustAddNode(name string, kind Kind, comp Component, opSig string, deterministic bool) *Node {
	n, err := d.AddNode(name, kind, comp, opSig, deterministic)
	if err != nil {
		panic(err)
	}
	return n
}

// AddEdge records that the output of from is an input to to. Duplicate
// edges are ignored. It returns an error if either node is unknown or the
// edge would close a cycle.
func (d *DAG) AddEdge(from, to *Node) error {
	if from == nil || to == nil {
		return fmt.Errorf("core: nil node in edge")
	}
	if !d.owns(from) || !d.owns(to) {
		return fmt.Errorf("core: edge endpoints not in this DAG")
	}
	if from == to {
		return fmt.Errorf("core: self-edge on %q", from.Name)
	}
	for _, c := range from.children {
		if c == to {
			return nil // already present
		}
	}
	// A cycle needs a path to→…→from, and a node without children starts
	// none. That is every edge of a DSL compile (operators are wired to
	// their inputs as they are declared), so the common case skips the
	// reachability walk.
	if len(to.children) > 0 && d.reaches(to, from) {
		return fmt.Errorf("core: edge %q→%q would create a cycle", from.Name, to.Name)
	}
	from.children = append(from.children, to)
	to.parents = append(to.parents, from)
	d.valid, d.signed = false, false
	return nil
}

// owns reports whether n is a node of d: IDs are positions in d.nodes.
func (d *DAG) owns(n *Node) bool {
	return n.ID >= 0 && n.ID < len(d.nodes) && d.nodes[n.ID] == n
}

// reaches reports whether dst is reachable from src following child edges.
func (d *DAG) reaches(src, dst *Node) bool {
	if src == dst {
		return true
	}
	seen := make(map[*Node]bool)
	stack := []*Node{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, n.children...)
	}
	return false
}

// MarkOutput declares a node as workflow output (HML is_output). Outputs
// anchor the program slice used for pruning.
func (d *DAG) MarkOutput(n *Node) {
	for _, o := range d.outputs {
		if o == n {
			return
		}
	}
	d.outputs = append(d.outputs, n)
	d.valid = false
}

// Outputs returns the declared output nodes.
func (d *DAG) Outputs() []*Node { return d.outputs }

// Nodes returns all nodes in insertion order. The slice must not be
// modified.
func (d *DAG) Nodes() []*Node { return d.nodes }

// Node returns the node with the given name, or nil.
func (d *DAG) Node(name string) *Node { return d.byName[name] }

// Len returns the number of nodes.
func (d *DAG) Len() int { return len(d.nodes) }

// nodeHeap is a min-heap of nodes ordered by ID, the TopoSort ready
// queue. Heap operations make each ready insertion O(log n) instead of
// the O(n) sorted-slice shift the queue used to pay, turning TopoSort
// from O(n²) into O((V+E) log V) on wide DAGs.
type nodeHeap []*Node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].ID < h[j].ID }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*Node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[: len(old)-1 : cap(old)]
	return n
}

// TopoSort returns the nodes in a topological order (parents before
// children). Ties are broken by insertion order (node ID), making the
// result deterministic: among all ready nodes, the lowest ID comes first.
func (d *DAG) TopoSort() []*Node {
	// Fast path: when every edge runs from a lower to a higher ID,
	// insertion order is itself the answer — the heap-based Kahn below,
	// with its min-ID tie-break, provably emits exactly 0,1,2,… in that
	// case (induction: after popping 0..k-1, node k's parents are all
	// popped, and k is the minimum remaining ID). DSL-compiled workflows
	// always qualify, since operators must be declared before use, so the
	// planner's repeated sorts cost one O(E) scan instead of heap churn.
	ordered := true
scan:
	for _, n := range d.nodes {
		for _, c := range n.children {
			if c.ID < n.ID {
				ordered = false
				break scan
			}
		}
	}
	if ordered {
		out := make([]*Node, len(d.nodes))
		copy(out, d.nodes)
		return out
	}

	// Node IDs are dense (AddNode assigns them sequentially and nodes are
	// never removed), so plain slices replace maps here.
	indeg := make([]int, len(d.nodes))
	ready := make(nodeHeap, 0, len(d.nodes))
	for _, n := range d.nodes {
		indeg[n.ID] = len(n.parents)
		if len(n.parents) == 0 {
			ready = append(ready, n)
		}
	}
	heap.Init(&ready)
	out := make([]*Node, 0, len(d.nodes))
	for len(ready) > 0 {
		n := heap.Pop(&ready).(*Node)
		out = append(out, n)
		for _, c := range n.children {
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				heap.Push(&ready, c)
			}
		}
	}
	return out
}

// Ancestors returns the set of all (transitive) ancestors of n.
func Ancestors(n *Node) map[*Node]bool {
	anc := make(map[*Node]bool)
	var visit func(*Node)
	visit = func(m *Node) {
		for _, p := range m.parents {
			if !anc[p] {
				anc[p] = true
				visit(p)
			}
		}
	}
	visit(n)
	return anc
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

// Slice computes the backward program slice from the output nodes
// (paper §5.4): the set of nodes that contribute to at least one output.
// If no outputs are declared, every node is live (nothing can be pruned
// safely). The result maps node → live.
func (d *DAG) Slice() map[*Node]bool {
	live := make(map[*Node]bool, len(d.nodes))
	if len(d.outputs) == 0 {
		for _, n := range d.nodes {
			live[n] = true
		}
		return live
	}
	var visit func(*Node)
	visit = func(n *Node) {
		if live[n] {
			return
		}
		live[n] = true
		for _, p := range n.parents {
			visit(p)
		}
	}
	for _, o := range d.outputs {
		visit(o)
	}
	return live
}

// ComputeSignatures computes chained equivalence signatures for every node
// in topological order. A node's chain signature is
// H(opSignature ‖ sorted parent chain signatures); per Definition 2 two
// nodes are equivalent iff their operator declarations and all ancestors
// match, which is exactly what the chained hash captures (up to hash
// collisions). It is Track without a previous DAG: every node is hashed
// and marked original.
//
// Nondeterministic nodes get stable signatures like any other: an
// unchanged nondeterministic operator does not deprecate its descendants'
// materializations (the paper's MNIST workflow reuses L/I outputs on PPR
// iterations despite nondeterministic DPR, §6.5.2). What nondeterminism
// forbids is reusing the node's own output — it never has an equivalent
// materialization (Definition 3) — which the execution engine enforces by
// never materializing or loading such nodes.
func (d *DAG) ComputeSignatures() { d.Track(nil) }

// Track is change tracking (§4.2) against prev, the previous iteration's
// DAG (nil at iteration 0), in one walk: it computes every node's chain
// signature (see ComputeSignatures), marks each node original when prev
// holds no node with an equal signature (Node.Original, Definition 2), and
// copies the measured metrics of that equivalent node — the last one in
// prev's order when signatures repeat — into the node (§5.2: statistics
// from past iterations are accurate for equivalent nodes because the exact
// same operator ran before). Nodes without an equivalent keep their
// metrics. The results equal ComputeSignatures followed by OriginalNodes
// and the metric carry; what is saved is the hashing of unchanged chains.
func (d *DAG) Track(prev *DAG) {
	// A node may take its same-named predecessor's signature only from a
	// DAG whose signatures describe its own structure: not a snapshot
	// ghost, not a DAG edited since it was signed, not d itself.
	reuse := prev != nil && prev != d && prev.signed
	d.bySig = nil
	// One digest and scratch buffer serve the whole pass.
	h := sha256.New()
	var (
		sum  [sha256.Size]byte
		buf  []byte
		sigs []string
	)
	for _, n := range d.TopoSort() {
		if reuse {
			p := prev.predecessor(n)
			if p != nil && p.sigOp == n.OpSignature && sameSigs(p.parents, n.parents) {
				n.chainSig, n.sigOp = p.chainSig, p.sigOp
				continue
			}
		}
		n.sigOp = n.OpSignature
		h.Reset()
		buf = append(buf[:0], n.OpSignature...)
		buf = append(buf, 0)
		sigs = sigs[:0]
		for _, p := range n.parents {
			sigs = append(sigs, p.chainSig)
		}
		if len(sigs) > 1 {
			sort.Strings(sigs)
		}
		for _, s := range sigs {
			buf = append(buf, s...)
			buf = append(buf, 0)
		}
		h.Write(buf)
		h.Sum(sum[:0])
		n.chainSig = hex.EncodeToString(sum[:])
	}
	d.signed = true

	if prev == nil {
		for _, n := range d.nodes {
			n.original = true
		}
		return
	}
	// Equivalents come from prev's index, last node winning.
	idx := prev.sigIndex()
	for _, n := range d.nodes {
		p := idx[n.chainSig]
		n.original = p == nil
		if p != nil && p.Metrics.Known {
			n.Metrics = p.Metrics
		}
	}
}

// predecessor returns the node of d named like n: by position first (a
// recompiled workflow declares its operators in the same order), else by
// name.
func (d *DAG) predecessor(n *Node) *Node {
	if n.ID < len(d.nodes) {
		if p := d.nodes[n.ID]; p.Name == n.Name {
			return p
		}
	}
	return d.byName[n.Name]
}

// sameSigs reports whether two parent lists have equal chain signatures in
// the same order.
func sameSigs(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].chainSig != b[i].chainSig {
			return false
		}
	}
	return true
}

// OriginalNodes compares this DAG against the previous iteration's DAG and
// returns the set of nodes in d that are original (Definition 2: having no
// equivalent node in prev). Both DAGs must have had ComputeSignatures
// called. A nil prev marks every node original (iteration 0). It builds
// the sets Track's Node.Original answers without; the two agree.
func (d *DAG) OriginalNodes(prev *DAG) map[*Node]bool {
	orig := make(map[*Node]bool, len(d.nodes))
	if prev == nil {
		for _, n := range d.nodes {
			orig[n] = true
		}
		return orig
	}
	prevSigs := prev.sigIndex()
	for _, n := range d.nodes {
		if _, ok := prevSigs[n.chainSig]; !ok {
			orig[n] = true
		}
	}
	return orig
}

// Validate checks structural invariants: unique names, acyclicity,
// edge symmetry (parent/child lists agree). It returns the first violation
// found.
//
// A DAG is checked once: success is recorded, and only AddNode, AddEdge
// or MarkOutput clear the record, so the planner's check of a DAG the
// compiler has just validated costs nothing.
func (d *DAG) Validate() error {
	if d.valid {
		return nil
	}
	seen := make(map[string]bool, len(d.nodes))
	for _, n := range d.nodes {
		if seen[n.Name] {
			return fmt.Errorf("core: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		for _, c := range n.children {
			if !hasNode(c.parents, n) {
				return fmt.Errorf("core: edge %q→%q missing reverse link", n.Name, c.Name)
			}
		}
		for _, p := range n.parents {
			if !hasNode(p.children, n) {
				return fmt.Errorf("core: edge %q→%q missing forward link", p.Name, n.Name)
			}
		}
	}
	if got := len(d.TopoSort()); got != len(d.nodes) {
		return fmt.Errorf("core: cycle detected (topo sort visited %d of %d nodes)", got, len(d.nodes))
	}
	d.valid = true
	return nil
}

func hasNode(s []*Node, n *Node) bool {
	for _, m := range s {
		if m == n {
			return true
		}
	}
	return false
}
