// Mid-run adaptive re-planning (Options.AdaptiveThreshold).
//
// The OPT-EXEC-PLAN solve prices every node from carried statistics; when
// those statistics are wrong — a new operator, changed data, a slower
// machine — the plan's Compute/Load split is wrong too, and the error is
// observable long before the run ends. The divergence monitor accumulates
// measured-versus-projected time over completed nodes and, past a relative
// threshold, corrects the estimates of not-yet-started nodes from the
// timings observed so far, then re-plans through the plan cache's partial
// path: completed and in-flight nodes' metrics are untouched (the executor
// defers its metric writes until after the run), so their cost keys are
// byte-identical to the run's own cached entry and only the weak
// components containing a corrected node are re-solved. Frontier nodes the
// revised solve moves from Compute to Load are swapped in the scheduler.
//
// Concurrency protocol: workers claim a run (nodeRun.started) under the
// monitor's read lock before reading its mutable fields; the re-planner
// runs inline on whichever worker tripped the threshold, holds the write
// lock, and mutates only runs it observes unstarted. Lock order is
// adaptState.mu → Engine.planMu; the emitter's and ready queue's internal
// mutexes are leaves.
package exec

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"helix/internal/core"
	"helix/internal/plan"
	"helix/internal/store"
)

const (
	// defaultAdaptiveMaxSolves bounds mid-run re-solve speculation when
	// Options.AdaptiveMaxSolves is unset.
	defaultAdaptiveMaxSolves = 3
	// biasApplyGate: a correction factor within this band of 1 is noise,
	// not a regime change — leave the estimate alone.
	biasApplyGate = 0.15
	// biasIdemGate: skip rewriting an estimate that would move by less
	// than this fraction. Repeated triggers under a stable skew therefore
	// write nothing, keep the fingerprint unchanged, and re-plan as a
	// free full cache hit — the property that lets re-plan attempts
	// outnumber the solve budget without exceeding it.
	biasIdemGate = 0.10
)

// snapView is a memoizing store view: the first Lookup/EstimateLoad per
// key is answered by the store, every later one from the memo. The
// adaptive runner plans its initial plan and all mid-run re-plans through
// one snapView, so artifacts published or evicted while the run executes
// cannot dirty a re-plan's fingerprint — the only deltas versus the run's
// cached entry are the monitor's deliberate metric corrections.
type snapView struct {
	mu    sync.Mutex
	st    *store.Store
	sizes map[string]int64
	miss  map[string]bool
	ests  map[int64]time.Duration
}

func newSnapView(st *store.Store) *snapView {
	return &snapView{
		st:    st,
		sizes: make(map[string]int64),
		miss:  make(map[string]bool),
		ests:  make(map[int64]time.Duration),
	}
}

func (v *snapView) Lookup(key string) (int64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if size, ok := v.sizes[key]; ok {
		return size, true
	}
	if v.miss[key] {
		return 0, false
	}
	ent, ok := v.st.Entry(key)
	if !ok {
		v.miss[key] = true
		return 0, false
	}
	v.sizes[key] = ent.Size
	return ent.Size, true
}

func (v *snapView) EstimateLoad(size int64) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d, ok := v.ests[size]; ok {
		return d
	}
	d := v.st.EstimateLoad(size)
	v.ests[size] = d
	return d
}

// biasSums accumulates measured seconds against planned compute seconds
// for one correction key (operator signature, kind, or globally).
type biasSums struct {
	meas float64 // measured own seconds of completed compute nodes
	base float64 // the initial plan's compute estimates for the same nodes
	n    int
}

// add folds one completed compute node into the sums.
func (b *biasSums) add(meas, base float64) {
	b.meas += meas
	b.base += base
	b.n++
}

// factor returns meas/base when the sums rest on at least minSamples
// completions, else 0.
func (b *biasSums) factor(minSamples int) float64 {
	if b == nil || b.n < minSamples || b.base <= 0 {
		return 0
	}
	return b.meas / b.base
}

// adaptState is the armed divergence monitor for one run.
type adaptState struct {
	mu sync.RWMutex

	engine *Engine
	d      *core.DAG
	prev   *core.DAG
	opts   Options
	view   *snapView

	threshold float64
	maxSolves int

	st   *runState
	runs []*nodeRun

	// Divergence accumulators over completions since the last re-plan
	// attempt; reset per attempt so each trigger needs fresh evidence.
	projSum float64
	measSum float64

	// Correction-factor evidence, keyed from most to least specific.
	// Factors are expressed against nodeRun.baseC — the initial plan's
	// estimate — never against an already-corrected value, so applying
	// the same factor twice writes the same number (idempotence).
	perOp   map[string]*biasSums
	perKind map[core.Kind]*biasSums
	global  biasSums

	solves   int // max-flow solves consumed by re-plans
	replans  int // re-plan attempts, idempotent ones included
	swapped  int // Compute→Load swaps adopted
	disabled bool

	// cloned is the row-cloned plan swaps are recorded on (cached plans
	// alias their rows into the plan cache, which must never see a
	// mutated row); nil until the first swap. Reported as Result.Plan.
	cloned *plan.Plan
}

func newAdaptState(e *Engine, d, prev *core.DAG, opts Options, view *snapView) *adaptState {
	maxSolves := opts.AdaptiveMaxSolves
	if maxSolves <= 0 {
		maxSolves = defaultAdaptiveMaxSolves
	}
	return &adaptState{
		engine:    e,
		d:         d,
		prev:      prev,
		opts:      opts,
		view:      view,
		threshold: opts.AdaptiveThreshold,
		maxSolves: maxSolves,
		perOp:     make(map[string]*biasSums),
		perKind:   make(map[core.Kind]*biasSums),
	}
}

// arm binds the monitor to the run. Called before any worker starts, so
// no locking: it snapshots each run's planned compute estimate (the
// correction base) and initial projection.
func (ad *adaptState) arm(st *runState, runs []*nodeRun) {
	ad.st = st
	ad.runs = runs
	st.adapt = ad
	for _, r := range runs {
		r.baseC = r.np.Costs.Compute
		r.proj = r.np.ProjectedOwn
	}
}

// note feeds one successful completion into the monitor and, when the
// accumulated divergence crosses the threshold, re-plans inline on the
// calling worker goroutine. The event (if any) is emitted after the lock
// is released so a slow observer never blocks claims.
func (ad *adaptState) note(s *runState, r *nodeRun, ready *readyQueue) {
	ad.mu.Lock()
	for _, m := range r.unit {
		ad.noteOne(m)
	}
	var ev ReplanEvent
	replanned := false
	if !ad.disabled && ad.projSum > 0 {
		if div := math.Abs(ad.measSum-ad.projSum) / ad.projSum; div > ad.threshold {
			ev, replanned = ad.replanLocked(s, div, ready)
		}
	}
	ad.mu.Unlock()
	if replanned {
		s.em.replan(ev)
	}
}

// noteOne accumulates one completed run. Called with ad.mu held.
func (ad *adaptState) noteOne(r *nodeRun) {
	if !r.measuredOK {
		return
	}
	if r.proj > 0 {
		ad.projSum += r.proj
		ad.measSum += r.ownSecs
	}
	// Correction evidence comes from computed nodes only: loads already
	// self-correct through the store's bandwidth model, and a load's
	// timing says nothing about a compute estimate.
	if r.state == core.StateCompute && r.baseC > 0 {
		op := r.node.OpSignature
		b := ad.perOp[op]
		if b == nil {
			b = &biasSums{}
			ad.perOp[op] = b
		}
		b.add(r.ownSecs, r.baseC)
		k := ad.perKind[r.node.Kind]
		if k == nil {
			k = &biasSums{}
			ad.perKind[r.node.Kind] = k
		}
		k.add(r.ownSecs, r.baseC)
		ad.global.add(r.ownSecs, r.baseC)
	}
}

// factorFor resolves the correction factor for a frontier node from the
// most specific evidence available: same operator signature (one
// completion suffices — it is the same operator), same kind (two), any
// completion at all (two). 0 means no usable evidence.
func (ad *adaptState) factorFor(n *core.Node) float64 {
	if f := ad.perOp[n.OpSignature].factor(1); f > 0 {
		return f
	}
	if f := ad.perKind[n.Kind].factor(2); f > 0 {
		return f
	}
	return ad.global.factor(2)
}

// replanLocked runs one re-plan attempt: correct frontier estimates,
// re-plan through the cache's partial path, adopt Compute→Load swaps for
// unstarted nodes. Called with ad.mu held; returns the event to emit
// after unlock, with ok=false when the attempt was suppressed by the
// solve budget. The event is a named return value, never a heap
// literal, so the observer-off path allocates nothing.
func (ad *adaptState) replanLocked(s *runState, div float64, ready *readyQueue) (ev ReplanEvent, ok bool) {
	if ad.solves >= ad.maxSolves {
		ad.disabled = true
		return ev, false
	}
	ad.replans++
	ev.Divergence = div
	ev.Solves = ad.solves
	// Each attempt needs fresh divergence evidence; the correction sums
	// persist (they are estimates, not triggers).
	ad.projSum, ad.measSum = 0, 0

	// 1. Correct the frontier: rewrite unstarted compute nodes' estimates
	// from observed factors. Factors multiply the initial estimate
	// (baseC), so a repeat trigger under the same skew computes the same
	// value and the idempotence gate skips the write — leaving the
	// fingerprint, and therefore the cache outcome, untouched.
	corrected := 0
	for _, r := range ad.runs {
		if atomic.LoadInt32(&r.started) != 0 || r.state != core.StateCompute {
			continue
		}
		if len(r.unit) > 1 {
			// Fused units share one measured wall; per-member correction
			// would be guesswork. Leave them to post-run observation.
			continue
		}
		f := ad.factorFor(r.node)
		if f <= 0 || math.Abs(f-1) <= biasApplyGate || r.baseC <= 0 {
			continue
		}
		newC := time.Duration(r.baseC * f * float64(time.Second))
		if cur := r.node.Metrics.Compute; cur > 0 {
			if ratio := float64(newC) / float64(cur); math.Abs(ratio-1) < biasIdemGate {
				continue
			}
		}
		r.node.Metrics.Compute = newC
		r.node.Metrics.Known = true
		corrected++
	}
	ev.Corrected = corrected
	if corrected == 0 {
		return ev, true
	}

	// 2. Re-plan. Same options, token, and memoized store view as the
	// initial plan; SkipCarry because the corrected metrics ARE the
	// input. Completed nodes' cost keys are unchanged, so the cache's
	// partial path re-solves only the components a correction touched —
	// or, when nothing moved since the last attempt, full-hits for free.
	p2, err := ad.engine.planWithView(ad.d, ad.prev, s.iteration, ad.opts, ad.view, true)
	if err != nil {
		// A mid-run planning failure only means the run proceeds with the
		// plan it already has.
		ad.disabled = true
		return ev, true
	}
	ev.Planned = true
	ev.Outcome = p2.Cache
	ev.ProjectedSeconds = p2.ProjectedSeconds
	ad.solves += p2.Solves
	ev.Solves = ad.solves
	if ad.solves >= ad.maxSolves {
		ad.disabled = true
	}

	// 3. Adopt. Projections refresh for every unstarted node; state
	// changes are adopted only as Compute→Load on deterministic,
	// unfused, unstarted nodes — the one swap that is always sound
	// mid-run (the artifact existed at run start; loading it is an
	// equivalent materialization by Definition 3).
	swapped := 0
	for i, np2 := range p2.Nodes {
		if i >= len(ad.runs) || np2.Node != ad.runs[i].node {
			break // defensive: plan/run misalignment, adopt nothing further
		}
		r := ad.runs[i]
		if atomic.LoadInt32(&r.started) != 0 || len(r.unit) > 1 {
			continue
		}
		if r.state == np2.State {
			r.proj = np2.ProjectedOwn
			continue
		}
		if r.state != core.StateCompute || np2.State != core.StateLoad || !r.node.Deterministic {
			continue
		}
		ad.swapLocked(s, r, np2, ready)
		swapped++
	}
	ev.Swapped = swapped
	ad.swapped += swapped
	if swapped > 0 {
		ad.cloned.ProjectedSeconds = p2.ProjectedSeconds
	}
	return ev, true
}

// swapLocked moves one unstarted run from Compute to Load: record the
// decision on the row-cloned plan, release the parents' pending counts
// (the load reads disk, not their values), and make the run schedulable
// immediately if it was still waiting on parents. Called with ad.mu held.
func (ad *adaptState) swapLocked(s *runState, r *nodeRun, np2 *plan.NodePlan, ready *readyQueue) {
	if ad.cloned == nil {
		ad.cloned = s.plan.CloneRows()
	}
	row := ad.cloned.Nodes[np2.Index]
	row.State = core.StateLoad
	row.Costs = np2.Costs
	row.ProjectedOwn = np2.ProjectedOwn
	row.Rationale = "adaptive: observed compute cost exceeded load, swapped mid-run"
	ad.cloned.Counts[core.StateCompute]--
	ad.cloned.Counts[core.StateLoad]++

	hadDeps := atomic.LoadInt32(&r.deps) > 0
	r.state = core.StateLoad
	r.proj = np2.ProjectedOwn

	// The load consumes no parent values: release each parent's pending
	// count as the compute's completion would have. A parent that is
	// already finished and reaches zero retires here; an unfinished one
	// retires on its own completion path (its finished flag is set before
	// its own pending check, so exactly one side fires).
	for _, p := range r.node.Parents() {
		if pr := s.runs[p.ID]; atomic.AddInt32(&pr.pending, -1) == 0 && atomic.LoadInt32(&pr.finished) == 1 {
			s.retire(pr)
		}
	}
	if hadDeps {
		// Still queued behind unfinished parents as a compute; as a load
		// it is ready now. Future release() calls skip it (state is no
		// longer Compute), so this is the only push. A push after the
		// queue closed (cancellation) is dropped, which is fine — the run
		// is unwinding.
		ready.push(r)
	}
}

// summary reports the monitor's totals and the row-cloned plan (nil when
// no swap happened). Called after the workers have quiesced.
func (ad *adaptState) summary() (solves, replans, swapped int, final *plan.Plan) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return ad.solves, ad.replans, ad.swapped, ad.cloned
}
