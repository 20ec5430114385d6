package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// tear cuts one byte from the middle of key's artifact, behind the
// store's back.
func tear(t *testing.T, st *store.Store, key string) {
	t.Helper()
	path := filepath.Join(st.Dir(), key+".gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artifact %s: %v", key, err)
	}
	if err := os.WriteFile(path, append(data[:len(data)/2:len(data)/2], data[len(data)/2+1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteOverTornArtifact: a prebuilt plan cannot be made again, so
// Execute over a torn artifact fails with ErrLoadFailed naming the node —
// having removed the entry, whose bytes leave the store's ledger with it.
// The next Run plans no load of that key and succeeds.
func TestExecuteOverTornArtifact(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	var c2 counters
	prog2 := testProgram(&c2)
	p, err := e.Plan(prog2.DAG, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if np := p.ByName("check"); np.State != core.StateLoad {
		t.Fatalf("unchanged output planned %v, want a load", np.State)
	}
	key := prog2.DAG.Node("check").ChainSignature()
	ent, _ := st.Entry(key)
	used := st.UsedBytes()
	tear(t, st, key)

	_, err = e.Execute(ctx, prog2, p)
	var ne *NodeError
	if !errors.Is(err, ErrLoadFailed) || !errors.As(err, &ne) || ne.Op != "check" {
		t.Fatalf("Execute over a torn artifact: %v, want a *NodeError for check wrapping ErrLoadFailed", err)
	}
	if st.Has(key) {
		t.Fatal("the torn entry is still in the store")
	}
	if got := st.UsedBytes(); got != used-ent.Size {
		t.Fatalf("store holds %d B after the failed load, want %d − the removed entry's %d B", got, used, ent.Size)
	}

	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatalf("Run after the failed Execute: %v", err)
	}
	if got := res.Plan.ByName("check").State; got != core.StateCompute {
		t.Fatalf("the next run planned check as %v, want it computed", got)
	}
	if got := res.Values["check"]; got != 0.3 {
		t.Fatalf("check = %v, want 0.3", got)
	}
	if c2.source.Load()+c2.extract.Load() != 0 || c2.learn.Load() != 0 || c2.check.Load() != 1 {
		t.Fatalf("the next run called %+v: want check alone, fed by learn's artifact", &c2)
	}
}

// countedChain is a chain n0 → n1 → … of length len(calls), counting each
// operator's calls; the last node is the output. Each operator costs
// opDelay, so loading a materialized result beats computing it.
func countedChain(calls []atomic.Int32, sigs []string) *Program {
	d := core.NewDAG()
	prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc)}
	var prev *core.Node
	for i := range calls {
		kind := core.KindExtractor
		if i == 0 {
			kind = core.KindSource
		}
		n := d.MustAddNode(fmt.Sprint("n", i), kind, core.DPR, sigs[i], true)
		if prev != nil {
			mustEdge(d, prev, n)
		}
		prog.Fns[n] = func(ctx context.Context, in []any) (any, error) {
			calls[i].Add(1)
			time.Sleep(opDelay)
			if i == 0 {
				return 1, nil
			}
			return in[0].(int) + i, nil
		}
		prev = n
	}
	d.MarkOutput(prev)
	return prog
}

// TestLoadFailureLoadsMaterializedAncestor: in a chain whose every result
// is materialized, an edit to n4 makes the plan load n3, whose artifact is
// torn. The run plans again and loads n2 — what the store still holds —
// instead of recomputing the chain from its source.
func TestLoadFailureLoadsMaterializedAncestor(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	sigs := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	first := countedChain(make([]atomic.Int32, len(sigs)), sigs)
	if _, err := e.Run(ctx, first, nil, 0); err != nil {
		t.Fatal(err)
	}
	tear(t, st, first.DAG.Node("n3").ChainSignature())

	calls := make([]atomic.Int32, len(sigs))
	sigs[4] = "s4-v2"
	prog := countedChain(calls, sigs)
	res, err := e.Run(ctx, prog, first.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Values["n5"], 1+1+2+3+4+5; got != want {
		t.Fatalf("n5 = %v, want %d", got, want)
	}
	for i, want := range []int32{0, 0, 0, 1, 1, 1} {
		if got := calls[i].Load(); got != want {
			t.Errorf("n%d computed %d times, want %d", i, got, want)
		}
	}
	if got := res.Nodes["n2"].State; got != core.StateLoad {
		t.Errorf("n2 %v, want loaded", got)
	}
	if r := res.Nodes["n3"]; r.State != core.StateCompute || !errors.Is(r.LoadErr, ErrLoadFailed) {
		t.Errorf("n3 %v with LoadErr %v, want computed after its load failed", r.State, r.LoadErr)
	}
}

// chargeBiller is a model clock that bills every computed unit one fixed
// charge.
type chargeBiller struct {
	clock.Model
	charge time.Duration
}

func (b *chargeBiller) Bill(*core.Node, []any, any) time.Duration {
	b.Sleep(b.charge)
	return b.charge
}

// hostBiller is a Biller on the host's clock that bills nothing: nodes
// are timed as on the host, so policy decisions match a host-clock run,
// while the run executes serially and writes inline as on any model.
type hostBiller struct{ clock.Real }

func (hostBiller) Bill(*core.Node, []any, any) time.Duration { return 0 }

// TestLoadFailureRecomputeIsBilled: on a model clock, the node computed
// after its load failed is billed like any other compute — its time is
// what the model charged this run, not a figure carried from the last
// one — and the run's wall includes it.
func TestLoadFailureRecomputeIsBilled(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(clock.With(context.Background(), &chargeBiller{charge: 10 * time.Millisecond}), prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	tear(t, st, prog.DAG.Node("learn").ChainSignature())

	var c2 counters
	prog2 := testProgram(&c2)
	prog2.DAG.Node("check").OpSignature = "chk-v2"
	const charge = 25 * time.Millisecond
	res, err := e.Run(clock.With(context.Background(), &chargeBiller{charge: charge}), prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Nodes["learn"]; r.State != core.StateCompute || r.Seconds != charge.Seconds() {
		t.Fatalf("learn %v for %vs after its load failed, want computed and billed %v", r.State, r.Seconds, charge)
	}
	if res.Wall != 2*charge {
		t.Fatalf("wall %v, want learn's and check's charges, %v", res.Wall, 2*charge)
	}
}
