package opt

import (
	"testing"

	"helix/internal/core"
)

// pprChain builds DPR → LI → PPR with the PPR node as the leaf.
func pprChain(t *testing.T) (*core.DAG, *core.Node, *core.Node, *core.Node) {
	t.Helper()
	d := core.NewDAG()
	dpr := d.MustAddNode("dpr", core.KindScanner, core.DPR, "s", true)
	li := d.MustAddNode("li", core.KindLearner, core.LI, "l", true)
	ppr := d.MustAddNode("ppr", core.KindReducer, core.PPR, "r", true)
	if err := d.AddEdge(dpr, li); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(li, ppr); err != nil {
		t.Fatal(err)
	}
	return d, dpr, li, ppr
}

func TestSurveyChangeModelDomains(t *testing.T) {
	for _, domain := range []string{"census", "nlp", "genomics", "mnist", "", "unknown"} {
		m, known := SurveyChangeModel(domain)
		if known != (domain != "unknown") {
			t.Errorf("%q: known = %v", domain, known)
		}
		var sum float64
		for _, p := range m.P {
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: probabilities sum to %v", domain, sum)
		}
	}
	if m, _ := SurveyChangeModel("nlp"); m.P[core.DPR] != 1 {
		t.Fatal("nlp domain must be all-DPR")
	}
}

func TestReuseProbabilityOrdering(t *testing.T) {
	_, dpr, _, ppr := pprChain(t)
	m, _ := SurveyChangeModel("census") // PPR-heavy changes
	// The DPR node is deprecated only by DPR changes (p=0.3); the PPR
	// node by changes anywhere in its ancestry (p=1.0). So the DPR node
	// is the safer bet for reuse.
	if m.ReuseProbability(dpr) <= m.ReuseProbability(ppr) {
		t.Fatalf("reuse probability DPR %.2f ≤ PPR %.2f",
			m.ReuseProbability(dpr), m.ReuseProbability(ppr))
	}
}

func TestAmortizedOMPDiscountsUnstableNodes(t *testing.T) {
	_, dpr, _, ppr := pprChain(t)
	m, _ := SurveyChangeModel("census")
	p := newAmortizedOMP(m, -1)
	// Marginal case: C = 2.5·load. The stable DPR node's expected payoff
	// clears the threshold; the unstable PPR leaf's does not.
	if !p.Decide(dpr, 2.5, 1) {
		t.Fatal("stable DPR node should materialize")
	}
	if p.Decide(ppr, 2.5, 1) {
		t.Fatal("unstable PPR node should be discounted below threshold")
	}
	// Overwhelming payoff clears either.
	if !p.Decide(ppr, 100, 1) {
		t.Fatal("huge payoff should still materialize")
	}
}

func TestAmortizedOMPReducesToStreamingWithCertainReuse(t *testing.T) {
	_, dpr, _, _ := pprChain(t)
	certain := ChangeModel{P: map[core.Component]float64{}} // nothing ever changes
	am := newAmortizedOMP(certain, -1)
	st := NewStreamingOMP(-1)
	for _, c := range []struct{ cum, load float64 }{{1, 1}, {2.1, 1}, {3, 1}, {0.5, 1}} {
		if am.Decide(dpr, c.cum, c.load) != st.Decide(dpr, c.cum, c.load) {
			t.Fatalf("divergence at C=%v l=%v", c.cum, c.load)
		}
	}
}

// TestAmortizedOMPBudget: the amortized policy reports the budget of the
// streaming policy it embeds and, like it, keeps no counter.
func TestAmortizedOMPBudget(t *testing.T) {
	_, dpr, _, _ := pprChain(t)
	m := ChangeModel{P: map[core.Component]float64{}}
	p := newAmortizedOMP(m, 100)
	if got := p.Budget(); got != 100 {
		t.Fatalf("Budget() = %d, want 100", got)
	}
	for i := 0; i < 3; i++ {
		if !p.Decide(dpr, 100, 1) {
			t.Fatalf("decision %d: a payoff that clears the threshold was refused", i)
		}
	}
}

// newAmortizedOMP builds the amortized policy as the session does: the
// paper's threshold of 2 and the given budget (≤ 0: unbounded).
func newAmortizedOMP(m ChangeModel, budget int64) *AmortizedOMP {
	return &AmortizedOMP{StreamingOMP: *NewStreamingOMP(budget), Model: m}
}
