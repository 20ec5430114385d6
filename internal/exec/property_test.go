package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// randomProgram builds a random DAG of integer operators. Each
// operator's output is a deterministic, order-sensitive function of its
// inputs and its version number, so any change tracking error — or an
// input delivered out of parent order — surfaces as a wrong integer.
// versions[i] selects operator i's behavior. The DAG is connected but
// not a chain: several nodes are ready at once, so the ready queue has
// something to order, and every sink is an output.
func randomProgram(rng *rand.Rand, nNodes int, versions []int) *Program {
	d := core.NewDAG()
	nodes := make([]*core.Node, nNodes)
	prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc, nNodes)}
	for i := 0; i < nNodes; i++ {
		comp := core.DPR
		switch {
		case i >= nNodes*2/3:
			comp = core.PPR
		case i >= nNodes/3:
			comp = core.LI
		}
		v := versions[i]
		nodes[i] = d.MustAddNode(fmt.Sprintf("n%d", i), core.KindExtractor, comp,
			fmt.Sprintf("op%d-v%d", i, v), true)
		// Wire to a random subset of earlier nodes, at least one.
		if i > 0 {
			parents := []int{rng.Intn(i)}
			for j := 0; j < i; j++ {
				if j != parents[0] && rng.Float64() < 0.25 {
					parents = append(parents, j)
				}
			}
			for _, j := range parents {
				if err := d.AddEdge(nodes[j], nodes[i]); err != nil {
					panic(err)
				}
			}
		}
		id, ver := i, v
		prog.Fns[nodes[i]] = func(ctx context.Context, in []any) (any, error) {
			acc := 17*id + 31*ver
			for k, x := range in {
				acc = acc*31 + x.(int)*(k+1)
			}
			return acc % 1000003, nil
		}
	}
	for _, n := range nodes {
		if len(n.Children()) == 0 {
			d.MarkOutput(n)
		}
	}
	return prog
}

// TestPropertyReuseMatchesScratch runs random mutation sequences through
// a reusing engine, a second reusing engine whose ready queue is FIFO
// instead of critical-path ordered, and a from-scratch engine, and
// requires identical outputs at every iteration — Theorem 1 under
// randomized workloads, and scheduler equivalence (the fuzz harness's
// former invariant 2: ready-queue order may change when a node runs,
// never what it computes).
func TestPropertyReuseMatchesScratch(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(trial) + 100))
			nNodes := 5 + rng.Intn(8)
			versions := make([]int, nNodes)

			stReuse, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			reuse := New(stReuse, -1)
			stFIFO, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fifo := New(stFIFO, -1)
			fifo.Opts.Sched = SchedFIFO
			stScratch, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			scratch := &Engine{Store: stScratch, Opts: Options{Policy: opt.NeverMat{}, Plan: plan.Options{DisableReuse: true, Streaming: true}}}

			var prevReuse, prevFIFO, prevScratch *core.DAG
			for iter := 0; iter < 6; iter++ {
				if iter > 0 {
					// Mutate 1-2 random operators.
					for m := 0; m < 1+rng.Intn(2); m++ {
						versions[rng.Intn(nNodes)]++
					}
				}
				// Distinct rng clones so both programs share structure.
				structSeed := int64(trial)*1000 + 7
				progA := randomProgram(rand.New(rand.NewSource(structSeed)), nNodes, versions)
				progB := randomProgram(rand.New(rand.NewSource(structSeed)), nNodes, versions)
				progC := randomProgram(rand.New(rand.NewSource(structSeed)), nNodes, versions)

				resA, err := reuse.Run(ctx, progA, prevReuse, iter)
				if err != nil {
					t.Fatal(err)
				}
				resB, err := scratch.Run(ctx, progB, prevScratch, iter)
				if err != nil {
					t.Fatal(err)
				}
				resC, err := fifo.Run(ctx, progC, prevFIFO, iter)
				if err != nil {
					t.Fatal(err)
				}
				if len(resB.Values) == 0 {
					t.Fatal("program has no outputs")
				}
				for out, want := range resB.Values {
					if resA.Values[out] != want {
						t.Fatalf("iteration %d: reuse output %s = %v != scratch %v (Theorem 1)",
							iter, out, resA.Values[out], want)
					}
					if resC.Values[out] != want {
						t.Fatalf("iteration %d: FIFO-scheduled output %s = %v != scratch %v (critical-path run: %v)",
							iter, out, resC.Values[out], want, resA.Values[out])
					}
				}
				prevReuse, prevFIFO, prevScratch = progA.DAG, progC.DAG, progB.DAG
			}
		})
	}
}

// TestPropertyPlanFeasibleOnRandomPrograms checks that the engine's
// realized states always satisfy the OEP constraints (Constraints 1-2)
// on random programs with partial materialization.
func TestPropertyPlanFeasibleOnRandomPrograms(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, -1)
	nNodes := 10
	versions := make([]int, nNodes)
	var prev *core.DAG
	for iter := 0; iter < 8; iter++ {
		if iter > 0 {
			versions[rng.Intn(nNodes)]++
		}
		prog := randomProgram(rand.New(rand.NewSource(5)), nNodes, versions)
		res, err := e.Run(ctx, prog, prev, iter)
		if err != nil {
			t.Fatal(err)
		}
		// Constraint 2 on realized states: computed nodes never have a
		// pruned parent.
		for _, n := range prog.DAG.Nodes() {
			if res.Nodes[n.Name].State != core.StateCompute {
				continue
			}
			for _, p := range n.Parents() {
				if res.Nodes[p.Name].State == core.StatePrune {
					t.Fatalf("iteration %d: %s computed with pruned parent %s", iter, n.Name, p.Name)
				}
			}
		}
		prev = prog.DAG
	}
}

// randomRowProgram builds a random tree of row-wise integer operators
// over one source: each stage — a map, a filter or a flatmap built on
// NewRowOp, or now and then a batch operator that reverses its rows —
// consumes one earlier node, usually the one just before it, so the tree
// holds linear chains the planner can fuse, broken where a node branches
// or a batch operator sits. Every leaf is an output. Each row function is
// an order-sensitive function of its row and its stage's version, so a
// row lost, duplicated or reordered by either execution path changes the
// bytes of some output. versions[0] is the source's.
func randomRowProgram(rng *rand.Rand, nNodes int, versions []int) *Program {
	d := core.NewDAG()
	nodes := make([]*core.Node, nNodes)
	prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc, nNodes), Rows: make(map[*core.Node]*RowOp)}
	srcVer := versions[0]
	nodes[0] = d.MustAddNode("src", core.KindSource, core.DPR, fmt.Sprintf("src-v%d", srcVer), true)
	prog.Fns[nodes[0]] = func(ctx context.Context, in []any) (any, error) {
		rows := make([]int, 20+3*srcVer)
		for i := range rows {
			rows[i] = (7*i + 13*srcVer) % 101
		}
		return rows, nil
	}
	for i := 1; i < nNodes; i++ {
		parent := i - 1
		if rng.Float64() < 0.3 {
			parent = rng.Intn(i)
		}
		kind := []string{"map", "filter", "flatmap", "reverse"}[rng.Intn(4)]
		id, ver := i, versions[i]
		nodes[i] = d.MustAddNode(fmt.Sprintf("%s%d", kind, i), core.KindExtractor, core.DPR,
			fmt.Sprintf("%s%d-v%d", kind, i, ver), true)
		mustEdge(d, nodes[parent], nodes[i])
		var op *RowOp
		switch kind {
		case "map":
			op = mapOp(func(v int) int { return (v*(31+ver) + id) % 1000003 })
		case "filter":
			op = filterOp(func(v int) bool { return (v+ver+id)%3 != 0 })
		case "flatmap":
			op = flatMapOp(func(v int) []int {
				out := make([]int, (v+ver)%3) // zero, one or two rows
				for j := range out {
					out[j] = v + j*id
				}
				return out
			})
		default:
			prog.Fns[nodes[i]] = func(ctx context.Context, in []any) (any, error) {
				rows, _ := in[0].([]int)
				out := make([]int, len(rows))
				for j, v := range rows {
					out[len(rows)-1-j] = v + ver
				}
				return out, nil
			}
			continue
		}
		nodes[i].Streamable = true
		prog.Rows[nodes[i]] = op
		prog.Fns[nodes[i]] = func(ctx context.Context, in []any) (any, error) { return RunRowOp(ctx, op, in) }
	}
	for _, n := range nodes {
		if len(n.Children()) == 0 {
			d.MarkOutput(n)
		}
	}
	return prog
}

// TestPropertyFusedMatchesBatch runs random mutation sequences of
// row-wise chains through a fusing engine, an engine whose planner fuses
// nothing (plan.Options.Streaming false), and the from-scratch engine,
// and requires byte-identical outputs at every iteration: streaming
// transparency (the fuzz harness's former invariant 7) — fusion may
// change how rows travel between operators, never what an output holds,
// whether its chain computed, loaded a materialized tail or was pruned.
// Odd trials run on a model clock billing every computed unit 5 ms, so
// the policy keeps intermediates and later iterations load them.
func TestPropertyFusedMatchesBatch(t *testing.T) {
	var fusedRuns atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && fusedRuns.Load() == 0 {
			t.Error("no trial fused a chain: the property was never exercised")
		}
	})
	for trial := 0; trial < 8; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			if trial%2 == 1 {
				ctx = clock.With(ctx, &chargeBiller{charge: 5 * time.Millisecond})
			}
			rng := rand.New(rand.NewSource(int64(trial) + 200))
			nNodes := 4 + rng.Intn(9)
			versions := make([]int, nNodes)
			open := func() *store.Store {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			fused := New(open(), -1)
			batch := New(open(), -1)
			batch.Opts.Plan.Streaming = false
			scratch := &Engine{Store: open(), Opts: Options{Policy: opt.NeverMat{}, Plan: plan.Options{DisableReuse: true, Streaming: true}}}
			engines := []*Engine{fused, batch, scratch}
			prevs := make([]*core.DAG, len(engines))
			structSeed := int64(trial)*1000 + 11
			for iter := 0; iter < 6; iter++ {
				if iter > 0 {
					for m := 0; m < 1+rng.Intn(2); m++ {
						versions[rng.Intn(nNodes)]++
					}
				}
				var results []*Result
				for i, e := range engines {
					prog := randomRowProgram(rand.New(rand.NewSource(structSeed)), nNodes, versions)
					res, err := e.Run(ctx, prog, prevs[i], iter)
					if err != nil {
						t.Fatalf("iteration %d, engine %d: %v", iter, i, err)
					}
					prevs[i] = prog.DAG
					results = append(results, res)
				}
				if n := len(results[1].Plan.Fused); n != 0 {
					t.Fatalf("iteration %d: the streaming-off engine fused %d runs", iter, n)
				}
				fusedRuns.Add(int64(len(results[0].Plan.Fused)))
				want := results[2].Values
				if len(want) == 0 {
					t.Fatal("program has no outputs")
				}
				for out, v := range want {
					ref, err := store.Encode(v)
					if err != nil {
						t.Fatal(err)
					}
					for i, name := range []string{"fused", "batch"} {
						got, err := store.Encode(results[i].Values[out])
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, ref) {
							t.Fatalf("iteration %d: %s output %s = %v, scratch %v", iter, name, out, results[i].Values[out], v)
						}
					}
				}
			}
		})
	}
}
