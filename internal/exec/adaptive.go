// Mid-run adaptive re-planning (Options.AdaptiveThreshold).
//
// The OPT-EXEC-PLAN solve prices every node from carried statistics; when
// those statistics are wrong — a new operator, changed data, a slower
// machine — the plan's Compute/Load split is wrong too, and the error is
// observable long before the run ends. The divergence monitor accumulates
// measured-versus-projected time over completed nodes and, past a relative
// threshold, corrects the estimates of not-yet-started nodes from the
// timings observed so far, then re-plans the iteration with one cold
// solve over the corrected estimates (completed and in-flight nodes'
// metrics are untouched: the executor defers its metric writes until after
// the run). Frontier nodes the revised solve moves from Compute to Load
// are swapped. A re-plan reads the live store and never enters the plan
// cache: a correction changes the fingerprint, so it could never hit, and
// storing it could only evict the steady-state plan.
//
// Concurrency protocol: each run has one claim word (nodeRun.claim). The
// worker that pops a run claims it to run as planned (claimCompute); the
// re-planner swaps an unclaimed Compute run by claiming it for load.
// Whichever CAS wins decides, and the run stays where it is in the
// scheduler: it becomes ready when its parents finish, and the worker
// that pops a run claimed for load loads it. Only that worker writes nodeRun.state; everyone
// else reads the plan row. adaptState.mu guards the monitor's own fields
// and is taken only by completing workers and the re-planner; lock order
// is adaptState.mu → Engine.planMu.
package exec

import (
	"math"
	"sync"
	"time"

	"helix/internal/core"
	"helix/internal/plan"
)

const (
	// maxReplanSolves bounds the max-flow solves mid-run re-planning may
	// spend per run; once reached the monitor disarms.
	maxReplanSolves = 3
	// biasApplyGate: a correction factor within this band of 1 is noise,
	// not a regime change — leave the estimate alone.
	biasApplyGate = 0.15
	// biasIdemGate: skip rewriting an estimate that would move by less
	// than this fraction. Repeated triggers under a stable skew therefore
	// write nothing and plan nothing — the property that lets re-plan
	// attempts outnumber the solve budget without exceeding it.
	biasIdemGate = 0.10
)

// Values of nodeRun.claim.
const (
	claimNone int32 = iota
	claimCompute
	claimLoad
)

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

// adaptState is the armed divergence monitor for one run. mu guards its
// own fields and the proj of every run; the runs' claims are atomic.
type adaptState struct {
	mu sync.Mutex

	engine *Engine
	d      *core.DAG
	prev   *core.DAG
	opts   Options

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

func newAdaptState(e *Engine, d, prev *core.DAG, opts Options) *adaptState {
	return &adaptState{
		engine:  e,
		d:       d,
		prev:    prev,
		opts:    opts,
		perOp:   make(map[string]*biasSums),
		perKind: make(map[core.Kind]*biasSums),
	}
}

// arm binds the monitor to the run. Called before any worker starts, so
// no locking: it snapshots each run's planned compute estimate (the
// correction base) and initial projection.
func (ad *adaptState) arm(st *runState, runs []*nodeRun) {
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
// is released so a slow observer never blocks another completion.
func (ad *adaptState) note(s *runState, r *nodeRun) {
	ad.mu.Lock()
	for _, m := range r.unit {
		ad.noteOne(m)
	}
	var ev ReplanEvent
	replanned := false
	if !ad.disabled && ad.projSum > 0 {
		if div := math.Abs(ad.measSum-ad.projSum) / ad.projSum; div > ad.opts.AdaptiveThreshold {
			ev, replanned = ad.replanLocked(s, div)
		}
	}
	ad.mu.Unlock()
	if replanned {
		s.em.replan(ev)
	}
}

// noteOne accumulates one completed run. Called with ad.mu held, on the
// worker that ran r.
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
// re-plan with one cold solve, adopt Compute→Load swaps for unclaimed
// runs. Called with ad.mu held; returns the event to emit after unlock,
// with ok=false when the attempt was suppressed by the solve budget. The
// event is a named return value, never a heap literal, so the
// observer-off path allocates nothing.
func (ad *adaptState) replanLocked(s *runState, div float64) (ev ReplanEvent, ok bool) {
	if ad.solves >= maxReplanSolves {
		ad.disabled = true
		return ev, false
	}
	ad.replans++
	ev.Divergence = div
	ev.Solves = ad.solves
	// Each attempt needs fresh divergence evidence; the correction sums
	// persist (they are estimates, not triggers).
	ad.projSum, ad.measSum = 0, 0

	// 1. Correct the frontier: rewrite unclaimed compute runs' estimates
	// from observed factors. Factors multiply the initial estimate
	// (baseC), so a repeat trigger under the same skew computes the same
	// value and the idempotence gate skips the write — and the re-plan. No
	// worker reads a node's compute estimate, so a run claimed during this
	// loop is unaffected by the write.
	corrected := 0
	for _, r := range ad.runs {
		if r.claim.Load() != claimNone || r.np.State != core.StateCompute {
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

	// 2. Re-plan: one cold solve through the live store, over the
	// corrected metrics as they stand (no carry from prev).
	p2, err := ad.engine.plan(ad.d, ad.prev, s.iteration, ad.opts, true)
	if err != nil {
		// A mid-run planning failure only means the run proceeds with the
		// plan it already has.
		ad.disabled = true
		return ev, true
	}
	ev.Planned = true
	ev.ProjectedSeconds = p2.ProjectedSeconds
	ad.solves++
	ev.Solves = ad.solves
	if ad.solves >= maxReplanSolves {
		ad.disabled = true
	}

	// 3. Adopt. Projections refresh for every unclaimed run; state
	// changes are adopted only as Compute→Load on deterministic, unfused,
	// unclaimed runs — the one swap that is always sound mid-run (the
	// artifact existed at run start; loading it is an equivalent
	// materialization by Definition 3).
	swapped := 0
	for i, np2 := range p2.Nodes {
		if i >= len(ad.runs) || np2.Node != ad.runs[i].node {
			break // defensive: plan/run misalignment, adopt nothing further
		}
		r := ad.runs[i]
		if r.claim.Load() != claimNone || len(r.unit) > 1 {
			continue
		}
		if r.np.State == np2.State {
			r.proj = np2.ProjectedOwn
			continue
		}
		if r.np.State != core.StateCompute || np2.State != core.StateLoad || !r.node.Deterministic {
			continue
		}
		if !r.claim.CompareAndSwap(claimNone, claimLoad) {
			continue // its worker claimed it first: it computes
		}
		ad.recordSwap(s, r, np2)
		swapped++
	}
	ev.Swapped = swapped
	ad.swapped += swapped
	if swapped > 0 {
		ad.cloned.ProjectedSeconds = p2.ProjectedSeconds
	}
	return ev, true
}

// recordSwap records a run claimed for load on the row-cloned plan. The
// run itself stays queued behind its parents; the worker that pops it
// finds the claim taken and loads. Called with ad.mu held.
func (ad *adaptState) recordSwap(s *runState, r *nodeRun, np2 *plan.NodePlan) {
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
	r.proj = np2.ProjectedOwn
}

// summary reports the monitor's totals and the row-cloned plan (nil when
// no swap happened). Called after the workers have quiesced.
func (ad *adaptState) summary() (solves, replans, swapped int, final *plan.Plan) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return ad.solves, ad.replans, ad.swapped, ad.cloned
}
