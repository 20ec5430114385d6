package helix

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func init() {
	RegisterType("")
	RegisterType(0)
	RegisterType(0.0)
	RegisterType([]string(nil))
}

// buildWorkflow constructs a small DPR→L/I→PPR pipeline whose operators
// sleep long enough that loading beats recomputing, with counters to
// observe execution. learnerParams lets tests model an L/I iteration.
func buildWorkflow(calls *atomic.Int64, learnerParams string) *Workflow {
	wf := New("sess-test")
	delay := 10 * time.Millisecond
	src := wf.Source("data", "v1", func(ctx context.Context, in []Value) (Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return []string{"a", "b", "c"}, nil
	})
	rows := wf.Scanner("rows", "csv", func(ctx context.Context, in []Value) (Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return len(in[0].([]string)), nil
	}, src)
	model := wf.Learner("model", learnerParams, func(ctx context.Context, in []Value) (Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		if learnerParams == "LR reg=0.1" {
			return in[0].(int) * 100, nil
		}
		return in[0].(int) * 200, nil
	}, rows)
	wf.Reducer("checked", "acc", func(ctx context.Context, in []Value) (Value, error) {
		calls.Add(1)
		time.Sleep(delay)
		return float64(in[0].(int)), nil
	}, model).IsOutput()
	return wf
}

func TestSessionFirstIterationComputesAll(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	res, err := sess.Run(context.Background(), buildWorkflow(&calls, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("output = %v", res.Values["checked"])
	}
	if calls.Load() != 4 {
		t.Fatalf("calls = %d, want 4", calls.Load())
	}
	if sess.Iteration() != 1 {
		t.Fatalf("iteration = %d", sess.Iteration())
	}
}

func TestSessionIdenticalRerunLoadsOutput(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var c1 atomic.Int64
	if _, err := sess.Run(ctx, buildWorkflow(&c1, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	var c2 atomic.Int64
	res, err := sess.Run(ctx, buildWorkflow(&c2, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("output = %v", res.Values["checked"])
	}
	if c2.Load() != 0 {
		t.Fatalf("identical rerun executed %d operators", c2.Load())
	}
}

func TestSessionLIIterationReusesDPR(t *testing.T) {
	// Paper §2.3: on an L/I change, DPR results are loaded, not recomputed.
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var c1 atomic.Int64
	if _, err := sess.Run(ctx, buildWorkflow(&c1, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	var c2 atomic.Int64
	res, err := sess.Run(ctx, buildWorkflow(&c2, "LR reg=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 600.0 {
		t.Fatalf("output = %v, want updated 600", res.Values["checked"])
	}
	// model + checked recompute; data and rows must not.
	if c2.Load() != 2 {
		t.Fatalf("L/I iteration executed %d operators, want 2", c2.Load())
	}
	if res.Nodes["rows"].State == StateCompute {
		t.Fatal("rows recomputed on an L/I iteration")
	}
	if res.Nodes["model"].State != StateCompute {
		t.Fatal("changed model not recomputed")
	}
}

func TestSessionDisableReuseRecomputes(t *testing.T) {
	sess, err := Open(t.TempDir(), WithReuse(false), WithPolicy(PolicyNever))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		var c atomic.Int64
		if _, err := sess.Run(ctx, buildWorkflow(&c, "LR reg=0.1")); err != nil {
			t.Fatal(err)
		}
		if c.Load() != 4 {
			t.Fatalf("iteration %d executed %d operators, want 4", i, c.Load())
		}
	}
	if sess.StorageBytes() != 0 {
		t.Fatal("PolicyNever stored bytes")
	}
}

func TestSessionPolicyAlwaysStoresEverything(t *testing.T) {
	sess, err := Open(t.TempDir(), WithPolicy(PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	var c atomic.Int64
	if _, err := sess.Run(context.Background(), buildWorkflow(&c, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if sess.StorageBytes() == 0 {
		t.Fatal("PolicyAlways stored nothing")
	}
}

func TestSessionInvalidOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), WithPolicy(Policy(99))); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestSessionCompileErrorSurfaced(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wf := New("bad")
	wf.Source("x", "v1", nil)
	if _, err := sess.Run(context.Background(), wf); err == nil {
		t.Fatal("expected compile error")
	}
	if sess.Iteration() != 0 {
		t.Fatal("failed run advanced the iteration counter")
	}
}

// TestSessionRunTimed: a Run's one timer, Result.Wall, covers its
// operators (RunTimed, the second timer it once sat beside, is gone).
func TestSessionRunTimed(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var c atomic.Int64
	res, err := sess.Run(context.Background(), buildWorkflow(&c, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall < 40*time.Millisecond {
		t.Fatalf("Result.Wall %v implausibly small for 4 sleeping operators", res.Wall)
	}
}

// TestSessionTheorem1AcrossManyChanges drives a change sequence through
// every component and checks outputs always match a reuse-free session.
func TestSessionTheorem1AcrossManyChanges(t *testing.T) {
	ctx := context.Background()
	withReuse, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	noReuse, err := Open(t.TempDir(), WithReuse(false), WithPolicy(PolicyNever))
	if err != nil {
		t.Fatal(err)
	}
	params := []string{"LR reg=0.1", "LR reg=0.5", "LR reg=0.5", "LR reg=0.1", "LR reg=0.1"}
	for i, p := range params {
		var cA, cB atomic.Int64
		rA, err := withReuse.Run(ctx, buildWorkflow(&cA, p))
		if err != nil {
			t.Fatal(err)
		}
		rB, err := noReuse.Run(ctx, buildWorkflow(&cB, p))
		if err != nil {
			t.Fatal(err)
		}
		if rA.Values["checked"] != rB.Values["checked"] {
			t.Fatalf("iteration %d: reuse output %v != scratch output %v (Theorem 1)",
				i, rA.Values["checked"], rB.Values["checked"])
		}
	}
}
