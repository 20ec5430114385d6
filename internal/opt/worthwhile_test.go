package opt

import (
	"math/rand"
	"testing"

	"helix/internal/core"
)

// refPolicy is a policy's Decide as it was before Worthwhile existed,
// written out in full with its own budget and pin state: the reference
// the refactored Decide is replayed against.
type refPolicy func(n *core.Node, cum, load float64, size int64) bool

// refBudgeted is the payoff-then-budget decision StreamingOMP and
// AmortizedOMP shared: weight scales C(n) (1 for the streaming policy).
func refBudgeted(threshold float64, budget int64, weight func(*core.Node) float64) refPolicy {
	remaining, unbounded := budget, budget < 0
	return func(n *core.Node, cum, load float64, size int64) bool {
		if cum*weight(n) <= threshold*load {
			return false
		}
		if unbounded {
			return true
		}
		if remaining < size {
			return false
		}
		remaining -= size
		return true
	}
}

func refMiniBatch(inner refPolicy) refPolicy {
	pinned := map[string]bool{}
	return func(n *core.Node, cum, load float64, size int64) bool {
		if d, ok := pinned[n.Name]; ok {
			return d
		}
		d := inner(n, cum, load, size)
		pinned[n.Name] = d
		return d
	}
}

// TestWorthwhileIsThePureHalfOfDecide holds all five policies to the
// MatPolicy contract over a random decision sequence: a false Worthwhile
// implies a false Decide at that load time or any longer one, Worthwhile
// neither reserves budget nor pins a mini-batch decision, and Decide
// still answers exactly as the pre-Worthwhile formulae did.
func TestWorthwhileIsThePureHalfOfDecide(t *testing.T) {
	d, dpr, li, ppr := pprChain(t)
	nodes := []*core.Node{dpr, li, ppr}
	for i := 0; i < 5; i++ {
		nodes = append(nodes, d.MustAddNode("extra"+string(rune('a'+i)), core.KindExtractor, core.DPR, "x", true))
	}
	model := SurveyChangeModel("census")
	one := func(*core.Node) float64 { return 1 }

	// state is what Worthwhile must leave alone: the unreserved budget
	// and the number of pinned mini-batch decisions.
	type state struct{ remaining, pins int64 }
	type policyCase struct {
		name  string
		pol   MatPolicy
		ref   refPolicy
		state func() state
	}
	stateless := func() state { return state{} }
	cases := []policyCase{
		{"always", AlwaysMat{}, func(*core.Node, float64, float64, int64) bool { return true }, stateless},
		{"never", NeverMat{}, func(*core.Node, float64, float64, int64) bool { return false }, stateless},
	}
	for _, budget := range []int64{-1, 4000} {
		somp := NewStreamingOMP(budget)
		aomp := NewAmortizedOMP(model, budget)
		inner := NewStreamingOMP(budget)
		mb := NewMiniBatchOMP(inner)
		cases = append(cases,
			policyCase{"streaming", somp, refBudgeted(2, budget, one), func() state {
				return state{remaining: somp.Remaining()}
			}},
			policyCase{"amortized", aomp, refBudgeted(2, budget, model.ReuseProbability), func() state {
				return state{remaining: aomp.remaining}
			}},
			policyCase{"minibatch", mb, refMiniBatch(refBudgeted(2, budget, one)), func() state {
				return state{remaining: inner.Remaining(), pins: int64(len(mb.decisions))}
			}})
	}

	for _, tc := range cases {
		rng := rand.New(rand.NewSource(18))
		for step := 0; step < 3000; step++ {
			n := nodes[rng.Intn(len(nodes))]
			cum, load := rng.Float64()*4, rng.Float64()*2
			longer := load + rng.Float64()*float64(rng.Intn(2))
			size := int64(rng.Intn(300))

			before := tc.state()
			worth := tc.pol.Worthwhile(n, cum, load)
			if after := tc.state(); after != before {
				t.Fatalf("%s step %d: Worthwhile changed the policy's state: %+v → %+v", tc.name, step, before, after)
			}
			got, want := tc.pol.Decide(n, cum, longer, size), tc.ref(n, cum, longer, size)
			if got != want {
				t.Fatalf("%s step %d: Decide(%s, %g, %g, %d) = %v, the old formula says %v", tc.name, step, n.Name, cum, longer, size, got, want)
			}
			if !worth && got {
				t.Fatalf("%s step %d: Worthwhile refused at load %g but Decide accepted at load %g", tc.name, step, load, longer)
			}
		}
	}
}
