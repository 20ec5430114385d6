package helix

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/exec"
	"helix/internal/store"
)

// streamWorkflow builds a pipeline with a fusible chain of three
// streamable operators between batch endpoints:
//
//	lines (Source) → parse (FlatMapRows) → scale (MapRows)
//	              → keep (FilterRows) → total (Reducer, output)
func streamWorkflow() *Workflow {
	wf := New("stream-test")
	lines := wf.Source("lines", "v1", func(ctx context.Context, in []Value) (Value, error) {
		return []string{"1 2 3", "4 5", "", "6 7 8 9"}, nil
	})
	parse := FlatMapRows(wf, "parse", "fields", func(line string) []float64 {
		// Per-row sleep so the chain costs enough that loading its tail
		// beats recomputing it (the reuse-across-iterations test).
		time.Sleep(2 * time.Millisecond)
		var out []float64
		for _, f := range strings.Fields(line) {
			v, _ := strconv.ParseFloat(f, 64)
			out = append(out, v)
		}
		return out
	}, lines)
	scale := MapRows(wf, "scale", "x10", func(v float64) float64 { return v * 10 }, parse)
	keep := FilterRows(wf, "keep", ">20", func(v float64) bool { return v > 20 }, scale)
	wf.Reducer("total", "sum", func(ctx context.Context, in []Value) (Value, error) {
		var sum float64
		for _, v := range in[0].([]float64) {
			sum += v
		}
		return sum, nil
	}, keep).IsOutput()
	return wf
}

// 30+40+50+60+70+80+90 (10 and 20 filtered out).
const streamWant = 420.0

func TestStreamingFusesChainAndMatchesBatch(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	p, err := sess.Plan(streamWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fused) != 1 {
		t.Fatalf("Fused = %v, want one group", p.Fused)
	}
	if got := len(p.Fused[0]); got != 3 {
		t.Fatalf("fused group has %d members, want 3 (parse, scale, keep)", got)
	}
	for _, i := range p.Fused[0] {
		switch name := p.Nodes[i].Node.Name; name {
		case "parse", "scale", "keep":
		default:
			t.Fatalf("unexpected fused member %q", name)
		}
	}
	if len(p.FusedSigs) != 1 || p.FusedSigs[0] == "" {
		t.Fatalf("FusedSigs = %v, want one merged signature", p.FusedSigs)
	}
	if !strings.Contains(p.Explain(), "[fused #0") {
		t.Fatalf("Explain does not render fusion:\n%s", p.Explain())
	}

	var fusedEvents int
	res, err := sess.Run(context.Background(), streamWorkflow(),
		WithObserver(func(ev RunEvent) {
			if ne, ok := ev.(NodeEvent); ok && ne.Fused {
				fusedEvents++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["total"] != streamWant {
		t.Fatalf("streaming total = %v, want %v", res.Values["total"], streamWant)
	}
	// 3 members × (started + retired).
	if fusedEvents != 6 {
		t.Fatalf("saw %d fused node events, want 6", fusedEvents)
	}

	// The same workflow run operator by operator must produce
	// byte-identical output under canonical encoding.
	resOff := runBatch(t, streamWorkflow())
	for name, v := range res.Values {
		a, err := store.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Encode(resOff.Values[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("output %q differs between streaming on and off", name)
		}
	}
}

// runBatch runs wf once on a fresh engine whose planner fuses nothing —
// every streamable operator a batch operator of its own, the path no
// Session selects — and returns its result.
func runBatch(t *testing.T, wf *Workflow) *exec.Result {
	t.Helper()
	prog, err := wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := exec.New(st, -1)
	e.Opts.Plan.Streaming = false
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Fused) != 0 {
		t.Fatalf("streaming-off plan fused %v, want none", res.Plan.Fused)
	}
	return res
}

// Interior values of a fused run are never built, but the run's tail
// keeps its own chain signature — so cross-iteration reuse loads the
// tail instead of recomputing the chain, exactly as batch execution
// would.
func TestStreamingTailReusedAcrossIterations(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Run(ctx, streamWorkflow()); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ctx, streamWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["total"] != streamWant {
		t.Fatalf("total = %v, want %v", res.Values["total"], streamWant)
	}
	// Iteration 2: nothing changed, so no live node should recompute the
	// fused chain — its members are pruned or loaded.
	if got := res.Nodes["scale"].State.String(); got == "Sc" {
		t.Fatalf("fused interior recomputed on unchanged iteration (state %s)", got)
	}
}

// Streamable operators run correctly as plain batch operators when they
// cannot fuse — here a single streamable node between batch neighbors
// (no chain of ≥2), exercising RunRowOp.
func TestSingleStreamableNodeRunsUnfused(t *testing.T) {
	wf := New("solo")
	src := wf.Source("src", "v1", func(ctx context.Context, in []Value) (Value, error) {
		return []float64{1, 2, 3}, nil
	})
	MapRows(wf, "dbl", "x2", func(v float64) float64 { return v * 2 }, src).IsOutput()
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p, err := sess.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fused) != 0 {
		t.Fatalf("single node fused: %v", p.Fused)
	}
	res, err := sess.Run(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Values["dbl"].([]float64)
	if len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Fatalf("dbl = %v", got)
	}
}

// A streamable operator whose input disagrees on the element type is a
// declaration error on both paths: unfused, when the operator sees its
// input value (a one-operator chain, which never fuses); fused, when the
// chain is bound — before any row function has run (it used to panic a
// worker goroutine on the first row's type assertion).
func TestStreamingElementTypeMismatchIsBadWorkflow(t *testing.T) {
	for _, fused := range []bool{true, false} {
		var parseCalls, halveCalls atomic.Int64
		wf := New("mismatch")
		rows := wf.Source("lines", "v1", func(ctx context.Context, in []Value) (Value, error) {
			return []string{"1 2", "3"}, nil
		})
		if fused {
			rows = FlatMapRows(wf, "parse", "ints", func(line string) []int {
				parseCalls.Add(1)
				return []int{len(line)}
			}, rows)
		}
		MapRows(wf, "halve", "/2", func(v float64) float64 {
			halveCalls.Add(1)
			return v / 2
		}, rows).IsOutput()

		sess, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Run(context.Background(), wf)
		sess.Close()
		if !errors.Is(err, ErrBadWorkflow) {
			t.Fatalf("fused=%v: err = %v, want ErrBadWorkflow", fused, err)
		}
		var ne *NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("fused=%v: err = %v, want a *NodeError", fused, err)
		}
		t.Logf("fused=%v: %v", fused, err)
		if halveCalls.Load() != 0 {
			t.Fatalf("fused=%v: halve ran %d times on rows of the wrong type", fused, halveCalls.Load())
		}
		if parseCalls.Load() != 0 {
			t.Fatalf("fused chain ran parse %d times before the mismatch was reported", parseCalls.Load())
		}
	}
}
