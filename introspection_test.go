package helix

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSessionHistoryRecordsIterations(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var c atomic.Int64
	if _, err := sess.Run(ctx, buildWorkflow(&c, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx, buildWorkflow(&c, "LR reg=0.5")); err != nil {
		t.Fatal(err)
	}
	h := sess.History()
	if len(h) != 2 {
		t.Fatalf("history length = %d", len(h))
	}
	if h[0].Iteration != 0 || h[1].Iteration != 1 {
		t.Fatal("iteration numbering wrong")
	}
	// Iteration 0: everything changed (no previous version).
	if len(h[0].Changed) != 4 {
		t.Fatalf("iteration 0 changed = %v, want all 4", h[0].Changed)
	}
	// Iteration 1: the learner and its descendant changed.
	if len(h[1].Changed) != 2 {
		t.Fatalf("iteration 1 changed = %v, want [checked model]", h[1].Changed)
	}
	if h[1].Changed[0] != "checked" || h[1].Changed[1] != "model" {
		t.Fatalf("iteration 1 changed = %v", h[1].Changed)
	}
	if h[1].Wall <= 0 || h[0].WorkflowName != "sess-test" {
		t.Fatal("record fields missing")
	}
	// The returned slice is a copy.
	h[0].Iteration = 99
	if sess.History()[0].Iteration == 99 {
		t.Fatal("History returned internal slice")
	}
}

func TestWorkflowDOT(t *testing.T) {
	var c atomic.Int64
	wf := buildWorkflow(&c, "LR reg=0.1")
	dot, err := wf.DOT(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", `"data"`, `"rows"`, `"model"`, `"checked"`, `"data" -> "rows"`, "peripheries=2"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestWorkflowDOTWithResult(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var c atomic.Int64
	if _, err := sess.Run(ctx, buildWorkflow(&c, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	// Rerun identical: output loads, rest prunes; the DOT should show it.
	wf := buildWorkflow(&c, "LR reg=0.1")
	res, err := sess.Run(ctx, wf)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := wf.DOT(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "Sp") || !strings.Contains(dot, "Sl") {
		t.Fatalf("annotated DOT missing states:\n%s", dot)
	}
}

func TestWorkflowDOTCompileErrorPropagates(t *testing.T) {
	wf := New("bad")
	wf.Source("x", "v1", nil)
	if _, err := wf.DOT(nil); err == nil {
		t.Fatal("expected compile error")
	}
}
