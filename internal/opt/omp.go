package opt

import (
	"sync"

	"helix/internal/core"
)

// MatPolicy decides, when a node goes out of scope during execution
// (Definition 5: all children computed or loaded), whether to materialize
// its result to disk (paper §5.3, Constraint 3: materialize immediately or
// evict). A policy answers the payoff half of Algorithm 2 only; the
// storage half is the store's, which admits each write the policy wants
// against the policy's Budget. The engine asks in two steps: Worthwhile
// first, with the load time of a zero-byte artifact — a lower bound on
// the real one — so a value the policy refuses whatever its size is
// evicted without ever being serialized; then, for the values that pass,
// Decide with the real size's load time. Implementations must be safe for
// concurrent use: the execution engine retires nodes from multiple worker
// goroutines, and with write-behind materialization Decide is also
// invoked from the store's background writer goroutines (for values whose
// size is only known after serialization), concurrently with worker-side
// calls.
type MatPolicy interface {
	// Worthwhile is the payoff half of Decide: false means
	// Decide(n, cumulative, l) is false for every l ≥ load. It has no
	// side effects — it pins no decision — so asking costs nothing and
	// commits to nothing.
	Worthwhile(n *core.Node, cumulative, load float64) bool
	// Decide reports whether to materialize node n given its cumulative
	// run time C(n) (Definition 6) and the projected load time of its
	// artifact, both in seconds.
	Decide(n *core.Node, cumulative, load float64) bool
	// Budget is the storage budget in bytes the store admits this
	// policy's writes against; ≤ 0 means none.
	Budget() int64
	// Blind reports whether the policy materializes indiscriminately,
	// including nondeterministic outputs that can never be reused
	// (Definition 3). HELIX AM and DeepDive are blind — which is exactly
	// why the paper's AM fails to finish the MNIST workload (§6.6) —
	// while the streaming OMP skips them.
	Blind() bool
}

// StreamingOMP is Algorithm 2: materialize an out-of-scope node iff twice
// its load cost is below its cumulative run time and the storage budget
// allows (the store applies the budget it reports). The intuition (paper
// §5.3): the materialization write at iteration t plus the load at t+1
// must beat recomputing the node's entire ancestor chain.
type StreamingOMP struct {
	// Threshold is the load-cost multiplier; the paper uses 2 (write once,
	// load once). WithOMPThreshold sets it, and internal/sim's threshold
	// ablation sweeps it.
	Threshold float64

	budget int64
}

// NewStreamingOMP returns the paper's heuristic with the given storage
// budget in bytes. A budget ≤ 0 means unbounded.
func NewStreamingOMP(budget int64) *StreamingOMP {
	return &StreamingOMP{Threshold: 2, budget: budget}
}

// Blind implements MatPolicy: the streaming heuristic never materializes
// results that cannot be reused.
func (p *StreamingOMP) Blind() bool { return false }

// Budget implements MatPolicy.
func (p *StreamingOMP) Budget() int64 { return p.budget }

// Worthwhile implements MatPolicy (Algorithm 2 line 5, first half:
// C(n) > 2·l). Written as the negated refusal so a NaN cost passes, as
// it always has.
func (p *StreamingOMP) Worthwhile(_ *core.Node, cumulative, load float64) bool {
	return !(cumulative <= p.Threshold*load)
}

// Decide implements MatPolicy: the same payoff test at the artifact's own
// load time.
func (p *StreamingOMP) Decide(n *core.Node, cumulative, load float64) bool {
	return p.Worthwhile(n, cumulative, load)
}

// AlwaysMat is the HELIX AM baseline (§6.1): materialize every intermediate
// result, as DeepDive does.
type AlwaysMat struct{}

// Blind implements MatPolicy: AM materializes indiscriminately.
func (AlwaysMat) Blind() bool { return true }

// Worthwhile implements MatPolicy: always true.
func (AlwaysMat) Worthwhile(*core.Node, float64, float64) bool { return true }

// Decide implements MatPolicy: always true.
func (AlwaysMat) Decide(*core.Node, float64, float64) bool { return true }

// Budget implements MatPolicy: AM writes without a cap.
func (AlwaysMat) Budget() int64 { return -1 }

// NeverMat is the HELIX NM baseline (§6.1): never materialize, as
// KeystoneML does.
type NeverMat struct{}

// Blind implements MatPolicy: trivially not (it writes nothing).
func (NeverMat) Blind() bool { return false }

// Worthwhile implements MatPolicy: always false, so under NM no value is
// ever serialized.
func (NeverMat) Worthwhile(*core.Node, float64, float64) bool { return false }

// Decide implements MatPolicy: always false.
func (NeverMat) Decide(*core.Node, float64, float64) bool { return false }

// Budget implements MatPolicy: NM writes nothing to cap.
func (NeverMat) Budget() int64 { return -1 }

// MiniBatchOMP adapts the streaming heuristic to mini-batch stream
// processing (paper §5.3, "Mini-Batches"): materialization decisions are
// made from the load and compute statistics of the FIRST batch processed
// end-to-end, then the same per-operator decision is reused for every
// subsequent batch. This avoids the dataset fragmentation that would
// complicate reuse if each batch decided independently.
type MiniBatchOMP struct {
	// Inner makes the first-batch decision; typically a StreamingOMP.
	Inner MatPolicy

	mu        sync.Mutex
	decisions map[string]bool // operator name → first-batch decision
}

// NewMiniBatchOMP wraps inner with first-batch decision pinning.
func NewMiniBatchOMP(inner MatPolicy) *MiniBatchOMP {
	return &MiniBatchOMP{Inner: inner, decisions: make(map[string]bool)}
}

// Blind implements MatPolicy.
func (p *MiniBatchOMP) Blind() bool { return p.Inner.Blind() }

// Budget implements MatPolicy: Inner's.
func (p *MiniBatchOMP) Budget() int64 { return p.Inner.Budget() }

// pinned returns the operator's first-batch decision, if one was made.
func (p *MiniBatchOMP) pinned(n *core.Node) (decision, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	decision, ok = p.decisions[n.Name]
	return decision, ok
}

// Worthwhile implements MatPolicy: a pinned decision answers for itself.
// An operator not yet decided always passes, even when Inner would
// refuse it on payoff alone: only Decide may pin, and a refusal that was
// never pinned could turn into a yes on a later batch — the per-batch
// fragmentation this policy exists to prevent.
func (p *MiniBatchOMP) Worthwhile(n *core.Node, _, _ float64) bool {
	d, ok := p.pinned(n)
	return !ok || d
}

// Decide implements MatPolicy: the first payoff decision per operator
// name is delegated to Inner and pinned; later batches replay it. The
// budget stays the store's to apply, so a pinned yes is still admitted
// write by write.
func (p *MiniBatchOMP) Decide(n *core.Node, cumulative, load float64) bool {
	if d, ok := p.pinned(n); ok {
		return d
	}
	d := p.Inner.Decide(n, cumulative, load)
	p.mu.Lock()
	if prev, ok := p.decisions[n.Name]; ok {
		d = prev // lost the race: keep the pinned decision
	} else {
		p.decisions[n.Name] = d
	}
	p.mu.Unlock()
	return d
}
