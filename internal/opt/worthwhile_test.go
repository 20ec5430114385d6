package opt

import (
	"math/rand"
	"testing"

	"helix/internal/core"
)

// refPolicy is a policy's Decide as it was before Worthwhile existed,
// written out in full with its own pin state: the reference the
// refactored Decide is replayed against.
type refPolicy func(n *core.Node, cum, load float64) bool

// refPayoff is the payoff decision StreamingOMP and AmortizedOMP share:
// weight scales C(n) (1 for the streaming policy). The budget half of
// Algorithm 2 is the store's admission, whose reference is in
// internal/store's admission tests.
func refPayoff(threshold float64, weight func(*core.Node) float64) refPolicy {
	return func(n *core.Node, cum, load float64) bool {
		return cum*weight(n) > threshold*load
	}
}

func refMiniBatch(inner refPolicy) refPolicy {
	pinned := map[string]bool{}
	return func(n *core.Node, cum, load float64) bool {
		if d, ok := pinned[n.Name]; ok {
			return d
		}
		d := inner(n, cum, load)
		pinned[n.Name] = d
		return d
	}
}

// TestWorthwhileIsThePureHalfOfDecide holds all five policies to the
// MatPolicy contract over a random decision sequence: a false Worthwhile
// implies a false Decide at that load time or any longer one, Worthwhile
// pins no mini-batch decision, and Decide still answers exactly as the
// pre-Worthwhile formulae did.
func TestWorthwhileIsThePureHalfOfDecide(t *testing.T) {
	d, dpr, li, ppr := pprChain(t)
	nodes := []*core.Node{dpr, li, ppr}
	for i := 0; i < 5; i++ {
		nodes = append(nodes, d.MustAddNode("extra"+string(rune('a'+i)), core.KindExtractor, core.DPR, "x", true))
	}
	model, _ := SurveyChangeModel("census")
	one := func(*core.Node) float64 { return 1 }

	// pins is what Worthwhile must leave alone: the number of pinned
	// mini-batch decisions.
	type policyCase struct {
		name string
		pol  MatPolicy
		ref  refPolicy
		pins func() int
	}
	none := func() int { return 0 }
	mb := NewMiniBatchOMP(NewStreamingOMP(-1))
	cases := []policyCase{
		{"always", AlwaysMat{}, func(*core.Node, float64, float64) bool { return true }, none},
		{"never", NeverMat{}, func(*core.Node, float64, float64) bool { return false }, none},
		{"streaming", NewStreamingOMP(4000), refPayoff(2, one), none},
		{"amortized", newAmortizedOMP(model, 4000), refPayoff(2, model.ReuseProbability), none},
		{"minibatch", mb, refMiniBatch(refPayoff(2, one)), func() int { return len(mb.decisions) }},
	}

	for _, tc := range cases {
		rng := rand.New(rand.NewSource(18))
		for step := 0; step < 3000; step++ {
			n := nodes[rng.Intn(len(nodes))]
			cum, load := rng.Float64()*4, rng.Float64()*2
			longer := load + rng.Float64()*float64(rng.Intn(2))

			before := tc.pins()
			worth := tc.pol.Worthwhile(n, cum, load)
			if after := tc.pins(); after != before {
				t.Fatalf("%s step %d: Worthwhile pinned a decision: %d → %d pins", tc.name, step, before, after)
			}
			got, want := tc.pol.Decide(n, cum, longer), tc.ref(n, cum, longer)
			if got != want {
				t.Fatalf("%s step %d: Decide(%s, %g, %g) = %v, the old formula says %v", tc.name, step, n.Name, cum, longer, got, want)
			}
			if !worth && got {
				t.Fatalf("%s step %d: Worthwhile refused at load %g but Decide accepted at load %g", tc.name, step, load, longer)
			}
		}
	}
}
