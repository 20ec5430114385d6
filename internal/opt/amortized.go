package opt

import (
	"sync"

	"helix/internal/core"
)

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
// computer vision mix DPR and L/I.
func SurveyChangeModel(domain string) ChangeModel {
	switch domain {
	case "social", "census":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 0.3, core.LI: 0.1, core.PPR: 0.6}}
	case "nlp", "ie":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 1.0}}
	case "natural", "genomics":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 0.3, core.LI: 0.4, core.PPR: 0.3}}
	case "vision", "mnist":
		return ChangeModel{P: map[core.Component]float64{core.DPR: 0.3, core.LI: 0.4, core.PPR: 0.3}}
	default:
		return ChangeModel{P: map[core.Component]float64{core.DPR: 1.0 / 3, core.LI: 1.0 / 3, core.PPR: 1.0 / 3}}
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
// cost. With p(reuse)=1 it reduces exactly to Algorithm 2. Like every
// MatPolicy it is safe for concurrent Decide calls, including from the
// store's write-behind writer goroutines; the budget is reserved under
// an internal mutex.
type AmortizedOMP struct {
	Model ChangeModel
	// Threshold as in StreamingOMP; 0 selects 2.
	Threshold float64

	mu        sync.Mutex
	remaining int64
	unbounded bool
}

// NewAmortizedOMP returns the amortized policy with the given budget in
// bytes (negative = unbounded).
func NewAmortizedOMP(model ChangeModel, budget int64) *AmortizedOMP {
	return &AmortizedOMP{Model: model, Threshold: 2, remaining: budget, unbounded: budget < 0}
}

// Name implements MatPolicy.
func (p *AmortizedOMP) Name() string { return "helix-opt-amortized" }

// Blind implements MatPolicy.
func (p *AmortizedOMP) Blind() bool { return false }

// Worthwhile implements MatPolicy: C(n)·p(reuse) > threshold·load
// (negated refusal, as in StreamingOMP).
func (p *AmortizedOMP) Worthwhile(n *core.Node, cumulative, load float64) bool {
	th := p.Threshold
	if th <= 0 {
		th = 2
	}
	return !(cumulative*p.Model.ReuseProbability(n) <= th*load)
}

// Decide implements MatPolicy: C(n)·p(reuse) > threshold·load and budget.
func (p *AmortizedOMP) Decide(n *core.Node, cumulative, load float64, size int64) bool {
	if !p.Worthwhile(n, cumulative, load) {
		return false
	}
	if p.unbounded {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remaining < size {
		return false
	}
	p.remaining -= size
	return true
}

// Release returns budget (e.g. after purging deprecated entries).
func (p *AmortizedOMP) Release(size int64) {
	if p.unbounded {
		return
	}
	p.mu.Lock()
	p.remaining += size
	p.mu.Unlock()
}
