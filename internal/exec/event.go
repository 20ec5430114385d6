package exec

import (
	"sync"
	"time"

	"helix/internal/core"
	"helix/internal/plan"
)

// Observer receives the structured events an executing iteration emits:
// the plan decision, per-node lifecycle, adaptive re-plan attempts, the
// write-behind flush barrier, planner-health stats, and iteration
// completion. Install one via Options.Observer (or the
// public helix.WithObserver option). Events are delivered serially — the
// engine never invokes the observer from two goroutines at once — but on
// whichever worker goroutine produced them, so a slow observer slows the
// run. A nil observer costs nothing: no events are constructed.
type Observer func(Event)

// Event is one structured occurrence within an executing iteration.
// Concrete types: PlanEvent, NodeEvent, ReplanEvent, FlushEvent,
// RunStatsEvent, DoneEvent.
type Event interface{ event() }

// PlanEvent reports the plan an iteration is about to execute: how the
// planner obtained it (cold solve or a wholesale cache hit), what it
// projects, and the state mix. Emitted once per plan
// executed, before any of its nodes starts: a run that plans again after
// a failed load emits one per attempt.
type PlanEvent struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// Outcome reports how the plan was obtained (plan-cache consultation).
	Outcome plan.CacheOutcome
	// ProjectedSeconds is the plan's Equation-1 projection T(W, s).
	ProjectedSeconds float64
	// PlanTime is the time spent planning; zero when the run executes a
	// prebuilt plan (Engine.Execute).
	PlanTime time.Duration
	// Compute, Load, Prune count live nodes per assigned state.
	Compute, Load, Prune int
}

func (PlanEvent) event() {}

// NodePhase distinguishes the two lifecycle points a NodeEvent reports.
type NodePhase int

const (
	// NodeStarted fires when a worker picks the node up, before its
	// load or compute begins.
	NodeStarted NodePhase = iota
	// NodeRetired fires when the node goes out of scope (Definition 5):
	// its own time is final and its materialization decision has been
	// made. Live pruned nodes retire immediately with zero seconds.
	NodeRetired
)

// String names the phase for progress displays.
func (p NodePhase) String() string {
	if p == NodeStarted {
		return "start"
	}
	return "retire"
}

// NodeEvent reports one node's lifecycle transition.
type NodeEvent struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// Name is the operator's declared name.
	Name string
	// Phase is the lifecycle point (started or retired).
	Phase NodePhase
	// State is the plan-assigned execution state.
	State core.State
	// Seconds is the node's own measured time t(n); zero at NodeStarted.
	Seconds float64
	// Materialized reports, at retirement, whether the node's result is
	// known to be on disk (loaded results, already-stored equivalents, and
	// the inline writes of a run on a Biller count; a write-behind write
	// still in the writer pool reports false — consult Result.Nodes after
	// the run for the settled outcome).
	Materialized bool
	// Bytes is the serialized size when known at emission time.
	Bytes int64
	// MatErr is why a result the policy chose to materialize is not in the
	// store, when that is known at retirement: an inline write (a run on a
	// Biller) that failed, or a value type this session has already seen
	// the codec refuse (ErrUnserializable). The first failure of a
	// write-behind write is still in the writer pool — Result.Nodes has
	// the settled NodeReport.MatErr after the run.
	MatErr error
	// Fused reports that the node executed as a member of a streaming
	// fused run: its Seconds are an even share of the unit's measured
	// wall time, and interior members retire without a value of their
	// own.
	Fused bool
}

func (NodeEvent) event() {}

// FlushEvent reports the write-behind flush barrier after the last node
// finished: Wait is the straggler wait before every handed-off write was
// durable (zero on a Biller, where writes were inline).
type FlushEvent struct {
	Iteration int
	Wait      time.Duration
}

func (FlushEvent) event() {}

// ReplanEvent reports one mid-run re-planning attempt by the adaptive
// divergence monitor (Options.AdaptiveThreshold): measured times on
// completed nodes drifted past the threshold, so the engine corrected the
// cost estimates of not-yet-started nodes and asked the planner to
// reconsider the frontier: one cold solve through the live store, never a
// plan-cache lookup. Zero or more per run, between node events.
type ReplanEvent struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// Divergence is the relative gap |measured−projected|/projected over
	// the completions accumulated since the last attempt — the trigger.
	Divergence float64
	// Corrected counts frontier nodes whose compute estimate was rewritten
	// from observed timings before re-planning.
	Corrected int
	// Planned reports that a re-plan actually ran. False when no estimate
	// moved enough to matter (the correction was idempotent), in which
	// case the attempt cost one scan and no planning at all.
	Planned bool
	// Solves is the cumulative number of max-flow solves consumed by
	// re-planning so far this run (one per planned attempt), at most 3.
	Solves int
	// Swapped counts nodes this attempt moved from Compute to Load.
	Swapped int
	// ProjectedSeconds is the re-plan's revised Equation-1 projection;
	// zero when Planned is false.
	ProjectedSeconds float64
}

func (ReplanEvent) event() {}

// RunStatsEvent summarizes the run's planner health: how the plan was
// obtained, how many max-flow solves the iteration consumed in total
// (initial plan plus adaptive re-plans), and what the adaptive monitor
// did. Emitted once per successful run, after the flush barrier and
// before DoneEvent; failed runs end their stream without one.
type RunStatsEvent struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// Outcome is the plan cache's verdict for the initial plan.
	Outcome plan.CacheOutcome
	// Solves counts max-flow solves across the whole iteration: the
	// initial plan's (0 on a cache hit) plus every adaptive re-plan's.
	Solves int
	// Replans counts adaptive re-plan attempts (including idempotent ones
	// that skipped planning); zero when adaptivity is off.
	Replans int
	// Swapped counts nodes adaptively moved from Compute to Load mid-run.
	Swapped int
}

func (RunStatsEvent) event() {}

// DoneEvent reports successful completion of the iteration. Failed runs
// end their event stream without one.
type DoneEvent struct {
	Iteration int
	// Wall is the compute critical path (Result.Wall).
	Wall time.Duration
	// FlushWait is the barrier wait (Result.FlushWait).
	FlushWait time.Duration
}

func (DoneEvent) event() {}

// emitter serializes event delivery to one observer. A nil *emitter is
// the "no observer" case: every emit method nil-checks the receiver
// first and returns without constructing an event, so instrumentation
// costs nothing when disabled (asserted by TestEmitterNilCostsNothing).
type emitter struct {
	obs       Observer
	iteration int
	mu        sync.Mutex
}

// newEmitter returns an emitter for obs, or nil when obs is nil.
func newEmitter(obs Observer, iteration int) *emitter {
	if obs == nil {
		return nil
	}
	return &emitter{obs: obs, iteration: iteration}
}

func (em *emitter) emit(ev Event) {
	em.mu.Lock()
	em.obs(ev)
	em.mu.Unlock()
}

// plan emits the run's single PlanEvent.
func (em *emitter) plan(p *plan.Plan, planTime time.Duration) {
	if em == nil {
		return
	}
	em.emit(PlanEvent{
		Iteration:        em.iteration,
		Outcome:          p.Cache,
		ProjectedSeconds: p.ProjectedSeconds,
		PlanTime:         planTime,
		Compute:          p.Counts[core.StateCompute],
		Load:             p.Counts[core.StateLoad],
		Prune:            p.Counts[core.StatePrune],
	})
}

// node emits one node lifecycle event. Scalar arguments keep the call
// sites allocation-free when the emitter is nil.
func (em *emitter) node(name string, phase NodePhase, state core.State, secs float64, materialized bool, bytes int64, matErr error, fused bool) {
	if em == nil {
		return
	}
	em.emit(NodeEvent{
		Iteration:    em.iteration,
		Name:         name,
		Phase:        phase,
		State:        state,
		Seconds:      secs,
		Materialized: materialized,
		Bytes:        bytes,
		MatErr:       matErr,
		Fused:        fused,
	})
}

// replan emits one adaptive re-plan attempt.
func (em *emitter) replan(ev ReplanEvent) {
	if em == nil {
		return
	}
	ev.Iteration = em.iteration
	em.emit(ev)
}

// runStats emits the run's planner-health summary.
func (em *emitter) runStats(outcome plan.CacheOutcome, solves, replans, swapped int) {
	if em == nil {
		return
	}
	em.emit(RunStatsEvent{
		Iteration: em.iteration,
		Outcome:   outcome,
		Solves:    solves,
		Replans:   replans,
		Swapped:   swapped,
	})
}

// flush emits the flush-barrier event.
func (em *emitter) flush(wait time.Duration) {
	if em == nil {
		return
	}
	em.emit(FlushEvent{Iteration: em.iteration, Wait: wait})
}

// done emits the iteration-complete event.
func (em *emitter) done(wall, flushWait time.Duration) {
	if em == nil {
		return
	}
	em.emit(DoneEvent{Iteration: em.iteration, Wall: wall, FlushWait: flushWait})
}
