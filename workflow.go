package helix

import (
	"context"
	"fmt"
	"strings"

	"helix/internal/core"
	"helix/internal/exec"
)

// Func is the executable body of an operator. Inputs arrive in the order
// the operator's inputs were declared; the returned Value is the
// operator's output (a data collection, model, or scalar). Functions must
// be pure with respect to their inputs — HELIX's reuse correctness
// (Theorem 1) rests on operators computing identical results on identical
// inputs.
type Func func(ctx context.Context, inputs []Value) (Value, error)

// Op is a declared operator: one node of the workflow DAG. Ops are
// created through the Workflow declaration methods and configured
// fluently (Uses, IsOutput, Nondeterministic).
type Op struct {
	wf     *Workflow
	idx    int // position in wf.ops
	name   string
	kind   core.Kind
	comp   core.Component
	params string
	fn     Func
	inputs []*Op
	uses   []*Op
	output bool
	nondet bool
	// row is the per-row implementation of a streamable operator
	// (MapRows/FilterRows/FlatMapRows); nil for batch operators. Compile
	// marks such nodes Streamable and registers the RowOp so the planner
	// can fuse linear chains of them.
	row *exec.RowOp
}

// Name returns the operator's declared name.
func (o *Op) Name() string { return o.name }

// Uses declares a hidden dependency of this operator on the outputs of
// deps — the HML uses keyword (paper §5.4): UDF dependencies invisible to
// dataflow analysis that must be protected from pruning and premature
// uncaching. The dependency values are appended to the operator's inputs
// after the declared ones.
func (o *Op) Uses(deps ...*Op) *Op {
	for _, d := range deps {
		if d == nil {
			o.wf.fail(fmt.Errorf("helix: %s uses nil operator", o.name))
			continue
		}
		o.uses = append(o.uses, d)
	}
	return o
}

// IsOutput marks the operator's result as a required workflow output —
// the HML is_output keyword. Outputs anchor pruning and are always
// materialized.
func (o *Op) IsOutput() *Op {
	o.output = true
	return o
}

// Nondeterministic declares that the operator does not compute identical
// results on identical inputs (e.g. an unseeded random feature map, as in
// the paper's MNIST workflow §6.2). Nondeterministic operators are never
// reused across iterations.
func (o *Op) Nondeterministic() *Op {
	o.nondet = true
	return o
}

// Workflow is a declared ML workflow: the Go analogue of the paper's
// Workflow interface in HML (§3.2). Declaration errors are sticky and
// reported by Compile.
type Workflow struct {
	name string
	ops  []*Op
	by   map[string]*Op
	err  error
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{name: name, by: make(map[string]*Op)}
}

// Name returns the workflow's name.
func (w *Workflow) Name() string { return w.name }

// Op returns the operator declared under name, or nil.
func (w *Workflow) Op(name string) *Op { return w.by[name] }

// Ops returns all declared operators in declaration order.
func (w *Workflow) Ops() []*Op { return w.ops }

// Err returns the first declaration error, if any.
func (w *Workflow) Err() error { return w.err }

func (w *Workflow) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// declare registers a new operator.
func (w *Workflow) declare(name string, kind core.Kind, comp core.Component, params string, fn Func, inputs []*Op) *Op {
	o := &Op{wf: w, idx: len(w.ops), name: name, kind: kind, comp: comp, params: params, fn: fn}
	if name == "" {
		w.fail(fmt.Errorf("helix: operator with empty name"))
	}
	if _, dup := w.by[name]; dup {
		w.fail(fmt.Errorf("helix: duplicate operator %q", name))
	}
	if fn == nil {
		w.fail(fmt.Errorf("helix: operator %q has no function", name))
	}
	o.inputs = make([]*Op, 0, len(inputs))
	for _, in := range inputs {
		if in == nil {
			w.fail(fmt.Errorf("helix: operator %q has nil input", name))
			continue
		}
		if in.wf != w {
			w.fail(fmt.Errorf("helix: operator %q input %q belongs to another workflow", name, in.name))
			continue
		}
		o.inputs = append(o.inputs, in)
	}
	w.ops = append(w.ops, o)
	w.by[name] = o
	return o
}

// Source declares a data-source operator (the HML refers_to FileSource
// pattern, Figure 3a line 3). params must encode everything that
// identifies the source (paths, versions): a changed params string marks
// the operator original in the next iteration, forcing recomputation.
func (w *Workflow) Source(name, params string, fn Func) *Op {
	return w.declare(name, core.KindSource, core.DPR, params, fn, nil)
}

// Scanner declares a parsing operator (parsing ∈ F; the HML is_read_into
// ... using pattern). It behaves like a flatMap over records.
func (w *Workflow) Scanner(name, params string, fn Func, inputs ...*Op) *Op {
	return w.declare(name, core.KindScanner, core.DPR, params, fn, inputs)
}

// Extractor declares a feature extraction or transformation operator
// (feature extraction/transformation ∈ F; the HML has_extractors
// pattern).
func (w *Workflow) Extractor(name, params string, fn Func, inputs ...*Op) *Op {
	return w.declare(name, core.KindExtractor, core.DPR, params, fn, inputs)
}

// Synthesizer declares a join/assembly operator producing examples from
// semantic units (join ∈ F; the HML results_from ... with_labels
// pattern).
func (w *Workflow) Synthesizer(name, params string, fn Func, inputs ...*Op) *Op {
	return w.declare(name, core.KindSynthesizer, core.DPR, params, fn, inputs)
}

// Learner declares a learning/inference operator (learning and inference
// ∈ F). Learners belong to the L/I component.
func (w *Workflow) Learner(name, params string, fn Func, inputs ...*Op) *Op {
	return w.declare(name, core.KindLearner, core.LI, params, fn, inputs)
}

// Reducer declares a postprocessing operator whose output size does not
// depend on the input size (reduce ∈ F). Reducers belong to the PPR
// component.
func (w *Workflow) Reducer(name, params string, fn Func, inputs ...*Op) *Op {
	return w.declare(name, core.KindReducer, core.PPR, params, fn, inputs)
}

// Compile lowers the declared workflow into the executable program run by
// the engine: the Workflow DAG of §4.1 plus per-node functions. The
// operator signature — kind, name, and params — implements the paper's
// representational equivalence check (§4.2): two iterations' operators
// are equivalent iff their declarations match and their ancestors are
// equivalent. Declaration and lowering failures (duplicate names, nil
// functions, cycles, …) satisfy errors.Is(err, ErrBadWorkflow).
func (w *Workflow) Compile() (*exec.Program, error) {
	prog, err := w.compile()
	if err != nil {
		return nil, tagged(ErrBadWorkflow, err)
	}
	return prog, nil
}

func (w *Workflow) compile() (*exec.Program, error) {
	if w.err != nil {
		return nil, w.err
	}
	// node maps an operator of this workflow to its DAG node (nil for a
	// foreign one, which AddEdge rejects); outdeg sizes each node's child
	// list up front.
	nodes := make([]*core.Node, len(w.ops))
	node := func(o *Op) *core.Node {
		if o.wf != w {
			return nil
		}
		return nodes[o.idx]
	}
	outdeg := make([]int, len(w.ops))
	for _, o := range w.ops {
		for _, in := range o.inputs {
			outdeg[in.idx]++
		}
		for _, u := range o.uses {
			if u.wf == w {
				outdeg[u.idx]++
			}
		}
	}
	d := core.NewDAG()
	prog := &exec.Program{
		DAG:  d,
		Fns:  make(map[*core.Node]exec.OpFunc, len(w.ops)),
		Rows: make(map[*core.Node]*exec.RowOp),
	}
	for i, o := range w.ops {
		n, err := d.AddNode(o.name, o.kind, o.comp, opSignature(o), !o.nondet)
		if err != nil {
			return nil, err
		}
		if err := d.Reserve(n, len(o.inputs)+len(o.uses), outdeg[i]); err != nil {
			return nil, err
		}
		nodes[i] = n
		if o.output {
			d.MarkOutput(n)
		}
		if o.row != nil {
			n.Streamable = true
			prog.Rows[n] = o.row
		}
		prog.Fns[n] = exec.OpFunc(o.fn)
	}
	for i, o := range w.ops {
		n := nodes[i]
		for _, in := range o.inputs {
			if err := d.AddEdge(node(in), n); err != nil {
				return nil, err
			}
		}
		for _, u := range o.uses {
			if err := d.AddEdge(node(u), n); err != nil {
				return nil, err
			}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// opSignature is the operator's declaration as one string,
// kind|name|params. The name's `\` and `|` are escaped, so the string
// says where the name ends and two different declarations never share it;
// a name without those bytes reads exactly as it did unescaped, which
// keeps every stored artifact's key.
func opSignature(o *Op) string {
	name := o.name
	if strings.ContainsAny(name, `\|`) {
		var b strings.Builder
		for i := 0; i < len(name); i++ {
			if c := name[i]; c == '\\' || c == '|' {
				b.WriteByte('\\')
			}
			b.WriteByte(name[i])
		}
		name = b.String()
	}
	return o.kind.String() + "|" + name + "|" + o.params
}
