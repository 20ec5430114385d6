package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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
