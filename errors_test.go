package helix_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helix"
	"helix/internal/clock"
	"helix/internal/collection"
)

// TestErrBadWorkflow: declaration and compilation failures satisfy
// errors.Is(err, ErrBadWorkflow) while keeping their specific message,
// from both Compile and the session methods that compile.
func TestErrBadWorkflow(t *testing.T) {
	wf := helix.New("bad")
	wf.Source("x", "v1", nil) // no function
	if _, err := wf.Compile(); !errors.Is(err, helix.ErrBadWorkflow) {
		t.Fatalf("Compile err = %v, want ErrBadWorkflow", err)
	} else if !strings.Contains(err.Error(), "no function") {
		t.Fatalf("Compile err lost its cause: %v", err)
	}

	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Run(context.Background(), wf); !errors.Is(err, helix.ErrBadWorkflow) {
		t.Fatalf("Run err = %v, want ErrBadWorkflow", err)
	}
	if _, err := sess.Plan(wf); !errors.Is(err, helix.ErrBadWorkflow) {
		t.Fatalf("Plan err = %v, want ErrBadWorkflow", err)
	}

	// A cycle found at lowering time is tagged too.
	cyc := helix.New("cycle")
	a := cyc.Scanner("a", "p", func(ctx context.Context, in []helix.Value) (helix.Value, error) { return 1, nil })
	b := cyc.Scanner("b", "p", func(ctx context.Context, in []helix.Value) (helix.Value, error) { return 1, nil }, a)
	a.Uses(b)
	if _, err := cyc.Compile(); !errors.Is(err, helix.ErrBadWorkflow) {
		t.Fatalf("cyclic Compile err = %v, want ErrBadWorkflow", err)
	}
}

// TestErrPolicyUnknown covers both scopes: the constructor and a
// run-scoped WithPolicy override.
func TestErrPolicyUnknown(t *testing.T) {
	if _, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.Policy(99))); !errors.Is(err, helix.ErrPolicyUnknown) {
		t.Fatalf("Open err = %v, want ErrPolicyUnknown", err)
	}
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var c atomic.Int64
	if _, err := sess.Run(context.Background(), optWorkflow(&c, "LR reg=0.1"),
		helix.WithPolicy(helix.Policy(77))); !errors.Is(err, helix.ErrPolicyUnknown) {
		t.Fatalf("run-scoped err = %v, want ErrPolicyUnknown", err)
	}
	if c.Load() != 0 || sess.Iteration() != 0 {
		t.Fatal("rejected run executed work or advanced the iteration")
	}
}

// TestConstructorFailureLeaksNothing is the store-leak regression test:
// a failed constructor (unknown policy) must not leave the store's
// writer pool or any other goroutine behind, and must not wedge the
// directory for a subsequent good open.
func TestConstructorFailureLeaksNothing(t *testing.T) {
	dir := t.TempDir()
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := helix.Open(dir, helix.WithPolicy(helix.Policy(99))); err == nil {
			t.Fatal("expected unknown-policy error")
		}
	}
	// Let any stray goroutine that was (incorrectly) spawned settle
	// before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("failed constructors leaked goroutines: %d before, %d after", before, after)
	}

	// The directory still opens and runs cleanly.
	sess, err := helix.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c atomic.Int64
	if _, err := sess.Run(context.Background(), optWorkflow(&c, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestErrSessionClosed: Run and Plan after Close fail typed; Close is
// idempotent.
func TestErrSessionClosed(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var c atomic.Int64
	wf := optWorkflow(&c, "LR reg=0.1")
	if _, err := sess.Run(context.Background(), wf); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), wf); !errors.Is(err, helix.ErrSessionClosed) {
		t.Fatalf("Run after Close err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Plan(wf); !errors.Is(err, helix.ErrSessionClosed) {
		t.Fatalf("Plan after Close err = %v, want ErrSessionClosed", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close err = %v, want nil", err)
	}
}

// TestErrConcurrentRun: a second Run while one is in flight is rejected
// with the sentinel; run under -race this also proves the guard makes
// the prev/iter handoff race-free.
func TestErrConcurrentRun(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	inFlight := make(chan struct{})
	release := make(chan struct{})
	wf := helix.New("slow")
	wf.Source("gate", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		close(inFlight)
		<-release
		return 1.0, nil
	}).IsOutput()

	var wg sync.WaitGroup
	wg.Add(1)
	var firstErr error
	go func() {
		defer wg.Done()
		_, firstErr = sess.Run(ctx, wf)
	}()
	<-inFlight

	var c atomic.Int64
	if _, err := sess.Run(ctx, optWorkflow(&c, "LR reg=0.1")); !errors.Is(err, helix.ErrConcurrentRun) {
		t.Fatalf("concurrent Run err = %v, want ErrConcurrentRun", err)
	}
	close(release)
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("first Run failed: %v", firstErr)
	}

	// After the first Run finished, the session accepts work again.
	if _, err := sess.Run(ctx, optWorkflow(&c, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
}

// TestNodeError: an operator failure surfaces as *NodeError carrying the
// operator name and unwrapping to the operator's own error.
func TestNodeError(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	boom := errors.New("model exploded")
	wf := helix.New("failing")
	src := wf.Source("data", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		return 1.0, nil
	})
	wf.Learner("model", "LR", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		return nil, boom
	}, src).IsOutput()

	_, err = sess.Run(context.Background(), wf)
	var ne *helix.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v (%T), want *NodeError", err, err)
	}
	if ne.Op != "model" {
		t.Fatalf("NodeError.Op = %q, want model", ne.Op)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err %v does not unwrap to the operator's error", err)
	}
}

// unregisteredResult is deliberately never passed to helix.RegisterType:
// behind the Value interface the codec's gob escape hatch refuses it.
type unregisteredResult struct{ N int }

// TestUnserializableResultIsReported: an operator whose result type was
// never registered used to be recomputed in every iteration with nothing
// in Result, the event stream or Explain saying so. The run still
// succeeds, the report names the node and matches ErrUnserializable, and
// the second iteration reports the same thing at retirement without
// paying for another encode.
func TestUnserializableResultIsReported(t *testing.T) {
	build := func(reducer string) *helix.Workflow {
		wf := helix.New("unserializable")
		src := wf.Source("src", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			time.Sleep(5 * time.Millisecond) // worth materializing under PolicyOpt
			return unregisteredResult{N: 7}, nil
		})
		wf.Reducer("out", reducer, func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			return in[0].(unregisteredResult).N, nil
		}, src).IsOutput()
		return wf
	}
	for _, inline := range []bool{true, false} {
		ctx := context.Background()
		if inline {
			ctx = clock.With(ctx, helix.HostBiller{}) // a model clock writes inline
		}
		sess, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.PolicyAlways))
		if err != nil {
			t.Fatal(err)
		}
		var retired []helix.NodeEvent
		obs := helix.WithObserver(func(ev helix.RunEvent) {
			if ne, ok := ev.(helix.NodeEvent); ok && ne.Phase == helix.NodeRetired && ne.Name == "src" {
				retired = append(retired, ne)
			}
		})
		for it, reducer := range []string{"a", "b"} {
			res, err := sess.Run(ctx, build(reducer), obs)
			if err != nil {
				t.Fatalf("inline=%v iteration %d: %v", inline, it, err)
			}
			if res.Values["out"] != 7 {
				t.Fatalf("inline=%v iteration %d: out = %v", inline, it, res.Values["out"])
			}
			rep := res.Nodes["src"]
			if !errors.Is(rep.MatErr, helix.ErrUnserializable) || !strings.Contains(rep.MatErr.Error(), `"src"`) {
				t.Fatalf("inline=%v iteration %d: src MatErr = %v, want ErrUnserializable naming the node", inline, it, rep.MatErr)
			}
			if res.Nodes["out"].MatErr != nil {
				t.Fatalf("inline=%v iteration %d: out (an int) reported %v", inline, it, res.Nodes["out"].MatErr)
			}
			if it == 1 && rep.MatSecs != 0 {
				t.Fatalf("inline=%v: second iteration spent %.6fs encoding a type already known to fail", inline, rep.MatSecs)
			}
		}
		if len(retired) != 2 {
			t.Fatalf("inline=%v: %d retirement events for src, want 2", inline, len(retired))
		}
		// The first write-behind failure is still in the writer pool when the
		// node retires; everything else is known by then.
		if inline && !errors.Is(retired[0].MatErr, helix.ErrUnserializable) {
			t.Fatalf("inline write: retirement event carries %v", retired[0].MatErr)
		}
		if !errors.Is(retired[1].MatErr, helix.ErrUnserializable) {
			t.Fatalf("inline=%v: second retirement event carries %v", inline, retired[1].MatErr)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOperatorPanicFailsRun: an operator that panics fails Run with a
// *NodeError that names it and wraps ErrOperatorPanic (the panic value in
// its message) instead of killing the process; the run's goroutines all
// exit, and the next Run with the operator fixed returns correct outputs.
func TestOperatorPanicFailsRun(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	build := func(panics bool) *helix.Workflow {
		wf := helix.New("panic")
		src := wf.Source("data", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			return 21, nil
		})
		params := "fixed"
		if panics {
			params = "panics"
		}
		wf.Reducer("double", params, func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			if panics {
				panic("reducer exploded")
			}
			return in[0].(int) * 2, nil
		}, src).IsOutput()
		return wf
	}

	runtime.GC()
	before := runtime.NumGoroutine()
	_, err = sess.Run(context.Background(), build(true))
	if !errors.Is(err, helix.ErrOperatorPanic) {
		t.Fatalf("Run err = %v, want ErrOperatorPanic", err)
	}
	var ne *helix.NodeError
	if !errors.As(err, &ne) || ne.Op != "double" {
		t.Fatalf("Run err = %v, want a *NodeError naming %q", err, "double")
	}
	if !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("Run err lost the panic value: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("panicking run leaked goroutines: %d before, %d after", before, after)
	}

	res, err := sess.Run(context.Background(), build(false))
	if err != nil {
		t.Fatalf("run after the panic: %v", err)
	}
	if got := res.Values["double"]; got != 42 {
		t.Fatalf("double = %v after the panic, want 42", got)
	}
}

// TestPartitionPanicFailsRun: an operator whose data-parallel closure
// panics on one of internal/collection's partition goroutines fails Run
// with ErrOperatorPanic, as a panic on the engine worker does, instead of
// killing the process. The partitions' goroutines all exit, and the next
// Run with the closure fixed returns correct outputs.
func TestPartitionPanicFailsRun(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	build := func(panics bool) *helix.Workflow {
		wf := helix.New("partition-panic")
		src := wf.Source("data", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			return []int{1, 2, 3, 4, 5, 6, 7, 8}, nil
		})
		params := "fixed"
		if panics {
			params = "panics"
		}
		wf.Reducer("square", params, func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			sq := collection.Map(collection.New(&collection.Env{Workers: 4}, in[0].([]int)), func(v int) int {
				if panics && v == 6 {
					panic("partition exploded")
				}
				return v * v
			})
			return sq.Collect(), nil
		}, src).IsOutput()
		return wf
	}

	runtime.GC()
	before := runtime.NumGoroutine()
	_, err = sess.Run(context.Background(), build(true))
	if !errors.Is(err, helix.ErrOperatorPanic) {
		t.Fatalf("Run err = %v, want ErrOperatorPanic", err)
	}
	var ne *helix.NodeError
	if !errors.As(err, &ne) || ne.Op != "square" {
		t.Fatalf("Run err = %v, want a *NodeError naming %q", err, "square")
	}
	if !strings.Contains(err.Error(), "partition exploded") {
		t.Fatalf("Run err lost the panic value: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("panicking run leaked goroutines: %d before, %d after", before, after)
	}

	res, err := sess.Run(context.Background(), build(false))
	if err != nil {
		t.Fatalf("run after the panic: %v", err)
	}
	if got := res.Values["square"]; !reflect.DeepEqual(got, []int{1, 4, 9, 16, 25, 36, 49, 64}) {
		t.Fatalf("square = %v after the panic", got)
	}
}
