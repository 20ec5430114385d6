package opt

import "helix/internal/core"

// ChangeModel gives the probability that the next iteration modifies each
// workflow component — the user model the paper defers to future work
// (§5.3: "This user model can be incorporated into OMP by using the
// predicted changes to better estimate the likelihood of reuse for each
// operator"). Probabilities come from the iteration-frequency survey [78]
// that also drives the simulated schedules.
type ChangeModel struct {
	// P maps component → probability that an iteration changes it.
	// Values should sum to ~1 across components.
	P map[core.Component]float64
}

// SurveyChangeModel returns the change distribution for a workload
// domain, mirroring the per-domain schedules of §6.3: social sciences
// iterate mostly on PPR, NLP entirely on DPR, natural sciences and
// computer vision mix DPR and L/I. The second result reports whether the
// domain is one of those names or "", which selects the uniform
// distribution; any other domain also gets the uniform one.
func SurveyChangeModel(domain string) (ChangeModel, bool) {
	switch domain {
	case "social", "census":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 0.3, core.LI: 0.1, core.PPR: 0.6}}, true
	case "nlp", "ie":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 1.0}}, true
	case "natural", "genomics":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 0.3, core.LI: 0.4, core.PPR: 0.3}}, true
	case "vision", "mnist":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 0.3, core.LI: 0.4, core.PPR: 0.3}}, true
	default:
		return ChangeModel{P: map[core.Component]float64{core.DPR: 1.0 / 3, core.LI: 1.0 / 3, core.PPR: 1.0 / 3}}, domain == ""
	}
}

// ReuseProbability estimates the probability that node n itself remains
// equivalent in the next iteration: one minus the probability that the
// change lands in n's own component or any ancestor's. Downstream
// changes do not deprecate n.
func (m ChangeModel) ReuseProbability(n *core.Node) float64 {
	// Components present in n's ancestry (including n).
	present := map[core.Component]bool{n.Component: true}
	for anc := range core.Ancestors(n) {
		present[anc.Component] = true
	}
	var pChange float64
	for comp, p := range m.P {
		if present[comp] {
			pChange += p
		}
	}
	// A change in a present component deprecates n only if it hits n or
	// an ancestor, not a sibling; discount by half as a coarse prior for
	// intra-component locality.
	pDeprecate := pChange * 0.5
	if pDeprecate > 1 {
		pDeprecate = 1
	}
	return 1 - pDeprecate
}

// AmortizedOMP extends the streaming heuristic with the change model:
// materialize iff expected payoff p(reuse)·C(n) exceeds the write+load
// cost. With p(reuse)=1 it reduces exactly to Algorithm 2; the embedded
// StreamingOMP supplies the threshold and the budget.
type AmortizedOMP struct {
	StreamingOMP
	Model ChangeModel
}

// Worthwhile implements MatPolicy: C(n)·p(reuse) > threshold·load.
func (p *AmortizedOMP) Worthwhile(n *core.Node, cumulative, load float64) bool {
	return p.StreamingOMP.Worthwhile(n, cumulative*p.Model.ReuseProbability(n), load)
}

// Decide implements MatPolicy: the same payoff test at the artifact's own
// load time.
func (p *AmortizedOMP) Decide(n *core.Node, cumulative, load float64) bool {
	return p.Worthwhile(n, cumulative, load)
}
