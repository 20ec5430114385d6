package helix

import (
	"context"
	"strings"
	"testing"
	"time"
)

func passthrough(v Value) Func {
	return func(ctx context.Context, in []Value) (Value, error) { return v, nil }
}

func TestWorkflowDeclarationAndCompile(t *testing.T) {
	wf := New("test")
	src := wf.Source("data", "v1", passthrough("raw"))
	rows := wf.Scanner("rows", "csv", func(ctx context.Context, in []Value) (Value, error) {
		return in[0].(string) + "-parsed", nil
	}, src)
	wf.Reducer("check", "acc", passthrough(1.0), rows).IsOutput()

	prog, err := wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if prog.DAG.Len() != 3 {
		t.Fatalf("nodes = %d", prog.DAG.Len())
	}
	if len(prog.DAG.Outputs()) != 1 || prog.DAG.Outputs()[0].Name != "check" {
		t.Fatal("output not marked")
	}
	rowsNode := prog.DAG.Node("rows")
	if len(rowsNode.Parents()) != 1 || rowsNode.Parents()[0].Name != "data" {
		t.Fatal("edge data→rows missing")
	}
}

func TestWorkflowDuplicateNameFails(t *testing.T) {
	wf := New("dup")
	wf.Source("x", "v1", passthrough(1))
	wf.Source("x", "v1", passthrough(2))
	if _, err := wf.Compile(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate", err)
	}
}

func TestWorkflowEmptyNameFails(t *testing.T) {
	wf := New("empty")
	wf.Source("", "v1", passthrough(1))
	if _, err := wf.Compile(); err == nil {
		t.Fatal("expected error for empty name")
	}
}

func TestWorkflowNilFunctionFails(t *testing.T) {
	wf := New("nilfn")
	wf.Source("x", "v1", nil)
	if _, err := wf.Compile(); err == nil {
		t.Fatal("expected error for nil function")
	}
}

func TestWorkflowNilInputFails(t *testing.T) {
	wf := New("nilin")
	wf.Scanner("s", "v1", passthrough(1), nil)
	if _, err := wf.Compile(); err == nil {
		t.Fatal("expected error for nil input")
	}
}

func TestWorkflowCrossWorkflowInputFails(t *testing.T) {
	w1 := New("w1")
	foreign := w1.Source("f", "v1", passthrough(1))
	w2 := New("w2")
	w2.Scanner("s", "v1", passthrough(1), foreign)
	if _, err := w2.Compile(); err == nil {
		t.Fatal("expected error for cross-workflow input")
	}
}

func TestUsesAddsHiddenDependency(t *testing.T) {
	// Paper §5.4: the uses keyword protects UDF dependencies from pruning.
	wf := New("uses")
	src := wf.Source("data", "v1", passthrough("d"))
	target := wf.Extractor("target", "col=target", passthrough("t"), src)
	red := wf.Reducer("check", "acc", func(ctx context.Context, in []Value) (Value, error) {
		return len(in), nil
	}, src)
	red.Uses(target).IsOutput()
	prog, err := wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	n := prog.DAG.Node("check")
	if len(n.Parents()) != 2 {
		t.Fatalf("check parents = %d, want 2 (input + uses)", len(n.Parents()))
	}
	// target is protected from pruning by the uses edge.
	live := prog.DAG.Slice()
	if !live[prog.DAG.Node("target")] {
		t.Fatal("uses dependency pruned")
	}
}

func TestSignatureReflectsParams(t *testing.T) {
	w1 := New("a")
	w1.Source("x", "v1", passthrough(1)).IsOutput()
	p1, err := w1.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w2 := New("a")
	w2.Source("x", "v2", passthrough(1)).IsOutput()
	p2, err := w2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p1.DAG.ComputeSignatures()
	p2.DAG.ComputeSignatures()
	if p1.DAG.Node("x").ChainSignature() == p2.DAG.Node("x").ChainSignature() {
		t.Fatal("changed params must change the signature")
	}
	w3 := New("a")
	w3.Source("x", "v1", passthrough(1)).IsOutput()
	p3, err := w3.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p3.DAG.ComputeSignatures() // different nonce must not matter for deterministic ops
	if p1.DAG.Node("x").ChainSignature() != p3.DAG.Node("x").ChainSignature() {
		t.Fatal("identical declarations must have identical signatures")
	}
}

func TestNondeterministicFlagReachesDAG(t *testing.T) {
	w := New("nd")
	w.Source("r", "v1", passthrough(1)).Nondeterministic().IsOutput()
	p, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.DAG.Node("r").Deterministic {
		t.Fatal("Nondeterministic() not propagated to the DAG node")
	}
	// The signature stays stable — non-reuse of the node itself is
	// enforced by the engine (no materialization, infinite load cost).
	p.DAG.ComputeSignatures()
	sig1 := p.DAG.Node("r").ChainSignature()
	p.DAG.ComputeSignatures()
	if sig1 != p.DAG.Node("r").ChainSignature() {
		t.Fatal("signature must be stable across recomputation")
	}
}

func TestWorkflowCycleFails(t *testing.T) {
	wf := New("cycle")
	a := wf.Source("a", "v1", passthrough(1))
	b := wf.Scanner("b", "v1", passthrough(1), a)
	// Manually wire a cycle through declared inputs.
	a.inputs = append(a.inputs, b)
	if _, err := wf.Compile(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestOpAccessors(t *testing.T) {
	wf := New("acc")
	o := wf.Source("x", "v1", passthrough(1))
	if o.Name() != "x" || wf.Op("x") != o || wf.Name() != "acc" {
		t.Fatal("accessors broken")
	}
	if len(wf.Ops()) != 1 {
		t.Fatal("Ops() wrong")
	}
	if wf.Err() != nil {
		t.Fatal("unexpected sticky error")
	}
}

// TestOpSignatureEscapesName: kind|name|params must say where the name
// ends. Unescaped, Extractor("a", "b|c") and Extractor("a|b", "c") over
// one source declare the same string, so the two nodes share a chain
// signature and, once it is materialized, load each other's value. Each
// must return its own value on every iteration. The operators take 20 ms
// so that loading their outputs beats recomputing them.
func TestOpSignatureEscapesName(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	slow := func(v Value) Func {
		return func(context.Context, []Value) (Value, error) {
			time.Sleep(20 * time.Millisecond)
			return v, nil
		}
	}
	for iter := 0; iter < 3; iter++ {
		wf := New("escape")
		src := wf.Source("src", "v1", slow("src"))
		wf.Extractor("a", "b|c", slow("from a"), src).IsOutput()
		wf.Extractor("a|b", "c", slow("from a|b"), src).IsOutput()
		wf.Extractor(`a\`, `|b`, slow(`from a\`), src).IsOutput()
		res, err := sess.Run(context.Background(), wf)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]string{"a": "from a", "a|b": "from a|b", `a\`: `from a\`} {
			if got := res.Values[name]; got != want {
				t.Fatalf("iteration %d: %q = %v, want %q", iter, name, got, want)
			}
		}
	}
	prog, err := New("plain").Source("x", "v1", passthrough(1)).wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.DAG.Node("x").OpSignature; got != "Source|x|v1" {
		t.Fatalf("a name without | or \\ must keep its signature, got %q", got)
	}
}

// Ops returns all declared operators in declaration order.
func (w *Workflow) Ops() []*Op { return w.ops }

// Err returns the first declaration error, if any.
func (w *Workflow) Err() error { return w.err }
