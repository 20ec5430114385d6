package opt

import (
	"sync"

	"helix/internal/core"
)

// MatPolicy decides, when a node goes out of scope during execution
// (Definition 5: all children computed or loaded), whether to materialize
// its result to disk (paper §5.3, Constraint 3: materialize immediately or
// evict). The engine asks in two steps: Worthwhile first, with the load
// time of a zero-byte artifact — a lower bound on the real one — so a
// value the policy refuses whatever its size is evicted without ever
// being serialized; then, for the values that pass, Decide with the real
// size and load time. Implementations must be safe for concurrent use:
// the execution engine retires nodes from multiple worker goroutines, and
// with write-behind materialization Decide is also invoked from the
// store's background writer goroutines (for values whose size is only
// known after serialization), concurrently with worker-side calls. All
// budget bookkeeping must therefore be internally synchronized — a true
// return from Decide reserves budget atomically with the decision.
type MatPolicy interface {
	// Name identifies the policy in benchmark output.
	Name() string
	// Worthwhile is the payoff half of Decide, without the size: false
	// means Decide(n, cumulative, l, size) is false for every size and
	// every l ≥ load. It has no side effects — it reserves no budget and
	// pins no decision — so asking costs nothing and commits to nothing.
	Worthwhile(n *core.Node, cumulative, load float64) bool
	// Decide reports whether to materialize node n given its cumulative
	// run time C(n) (Definition 6), projected load time, and on-disk size,
	// all in seconds/bytes. A true return also reserves any budget.
	Decide(n *core.Node, cumulative, load float64, size int64) bool
	// Blind reports whether the policy materializes indiscriminately,
	// including nondeterministic outputs that can never be reused
	// (Definition 3). HELIX AM and DeepDive are blind — which is exactly
	// why the paper's AM fails to finish the MNIST workload (§6.6) —
	// while the streaming OMP skips them.
	Blind() bool
}

// StreamingOMP is Algorithm 2: materialize an out-of-scope node iff twice
// its load cost is below its cumulative run time and the storage budget
// allows. The intuition (paper §5.3): the materialization write at
// iteration t plus the load at t+1 must beat recomputing the node's entire
// ancestor chain.
type StreamingOMP struct {
	// Threshold is the load-cost multiplier; the paper uses 2 (write once,
	// load once). Exposed for the ablation benchmark.
	Threshold float64

	mu        sync.Mutex
	remaining int64
	unbounded bool
}

// NewStreamingOMP returns the paper's heuristic with the given storage
// budget in bytes. A negative budget means unbounded.
func NewStreamingOMP(budget int64) *StreamingOMP {
	return &StreamingOMP{Threshold: 2, remaining: budget, unbounded: budget < 0}
}

// Name implements MatPolicy.
func (p *StreamingOMP) Name() string { return "helix-opt" }

// Blind implements MatPolicy: the streaming heuristic never materializes
// results that cannot be reused.
func (p *StreamingOMP) Blind() bool { return false }

// Worthwhile implements MatPolicy (Algorithm 2 line 5, first half:
// C(n) > 2·l). Written as the negated refusal so a NaN cost passes, as
// it always has.
func (p *StreamingOMP) Worthwhile(_ *core.Node, cumulative, load float64) bool {
	return !(cumulative <= p.Threshold*load)
}

// Decide implements MatPolicy (Algorithm 2 line 5: C(n) > 2·l and budget).
func (p *StreamingOMP) Decide(n *core.Node, cumulative, load float64, size int64) bool {
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

// Remaining reports the unreserved budget in bytes (negative if unbounded).
func (p *StreamingOMP) Remaining() int64 {
	if p.unbounded {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining
}

// Release returns budget (e.g. when a previously materialized node is
// purged because it became deprecated).
func (p *StreamingOMP) Release(size int64) {
	if p.unbounded {
		return
	}
	p.mu.Lock()
	p.remaining += size
	p.mu.Unlock()
}

// AlwaysMat is the HELIX AM baseline (§6.1): materialize every intermediate
// result, as DeepDive does.
type AlwaysMat struct{}

// Name implements MatPolicy.
func (AlwaysMat) Name() string { return "helix-am" }

// Blind implements MatPolicy: AM materializes indiscriminately.
func (AlwaysMat) Blind() bool { return true }

// Worthwhile implements MatPolicy: always true.
func (AlwaysMat) Worthwhile(*core.Node, float64, float64) bool { return true }

// Decide implements MatPolicy: always true.
func (AlwaysMat) Decide(*core.Node, float64, float64, int64) bool { return true }

// NeverMat is the HELIX NM baseline (§6.1): never materialize, as
// KeystoneML does.
type NeverMat struct{}

// Name implements MatPolicy.
func (NeverMat) Name() string { return "helix-nm" }

// Blind implements MatPolicy: trivially not (it writes nothing).
func (NeverMat) Blind() bool { return false }

// Worthwhile implements MatPolicy: always false, so under NM no value is
// ever serialized.
func (NeverMat) Worthwhile(*core.Node, float64, float64) bool { return false }

// Decide implements MatPolicy: always false.
func (NeverMat) Decide(*core.Node, float64, float64, int64) bool { return false }

// CumulativeTimes computes C(n_i) per Definition 6 for every node, given
// each node's own elapsed time t(n_i) (compute time if computed, load time
// if loaded, 0 if pruned): C(n_i) = t(n_i) + Σ_{n_j ∈ ancestors(n_i)} t(n_j).
func CumulativeTimes(d *core.DAG, own map[*core.Node]float64) map[*core.Node]float64 {
	cum := make(map[*core.Node]float64, d.Len())
	for _, n := range d.TopoSort() {
		total := own[n]
		for anc := range core.Ancestors(n) {
			total += own[anc]
		}
		cum[n] = total
	}
	return cum
}

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

// Name implements MatPolicy.
func (p *MiniBatchOMP) Name() string { return "helix-opt-minibatch" }

// Blind implements MatPolicy.
func (p *MiniBatchOMP) Blind() bool { return p.Inner.Blind() }

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

// Decide implements MatPolicy: the first decision per operator name is
// delegated to Inner and pinned; later batches replay it.
func (p *MiniBatchOMP) Decide(n *core.Node, cumulative, load float64, size int64) bool {
	if d, ok := p.pinned(n); ok {
		return d
	}
	d := p.Inner.Decide(n, cumulative, load, size)
	p.mu.Lock()
	if prev, ok := p.decisions[n.Name]; ok {
		d = prev // lost the race: keep the pinned decision
	} else {
		p.decisions[n.Name] = d
	}
	p.mu.Unlock()
	return d
}
