// Package exec implements HELIX-Go's execution engine (paper §2.1, §5.3).
// It is a pure plan executor: the planning pipeline — change tracking,
// program slicing, and the OPT-EXEC-PLAN solve — lives in internal/plan,
// and Engine.Run first builds a Plan, then carries it out. Execution runs
// on a bounded worker-pool scheduler (Options.Parallelism goroutines, a
// ready queue fed by parent-completion counts) — standing in for Spark's
// fair scheduling while keeping goroutine count independent of DAG size —
// loading materialized results, computing operators, and pruning skipped
// nodes. Whenever an intermediate result goes out of scope (Definition 5)
// the engine consults the materialization policy and evicts the value
// from the in-memory cache eagerly (§5.4, cache pruning).
//
// A planned load that fails ends the attempt: the engine removes the entry
// (its bytes leave the store's ledger with it) and Run plans the iteration
// again over the store without it, so the new plan runs on the same
// scheduler.
//
// # Write-behind materialization
//
// On the host's clock materialization is write-behind: when a node goes
// out of scope, retire() hands the value to the store's bounded
// background writer pool (store.PutAsync) and computation proceeds
// immediately; gob-encoding, the size-dependent policy check, the disk
// write, and the manifest update all happen off the critical path — for
// values whose fate depends on their size: one the policy refuses even at
// an empty artifact's load time (MatPolicy.Worthwhile) is evicted at
// retirement and never serialized. Run drains the pool with a store.Flush
// barrier after the last node finishes, before the Result is assembled —
// so Result.MatTime still reports the full serialize+write cost,
// cross-iteration reuse observes every accepted materialization, and the
// manifest is current when Run returns. Result.Wall covers only the
// compute critical path; the (mostly overlapped) tail spent waiting at
// the barrier is reported separately as Result.FlushWait.
//
// # Clocks
//
// Every duration the engine reports is read from the run's clock
// (internal/clock), which arrives on Run's context and is resolved once
// per run: the host's clock unless the caller installed another. A clock
// that is also a Biller is a model (internal/sim's): the run then executes
// one node at a time, so each node is timed with exactly what it was
// billed and the run's wall is the serial sum. A serial run has nothing
// to overlap a write with, so on a Biller the retiring worker writes each
// materialization itself (store.Write) and Run skips the flush barrier:
// the paper-figure systems pay materialization on the critical path, as
// the paper measures them.
//
// helixlint (errtaxonomy) holds this package's error returns to the
// typed taxonomy: wrapped sentinels (ErrBadPlan, ErrNoFunction, the
// context errors) and *NodeError, never bare leaf errors.
//
//lint:errtaxonomy
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// OpFunc computes one operator's output from its inputs, which arrive in
// the same order as the node's parents.
type OpFunc func(ctx context.Context, inputs []any) (any, error)

// Program is a compiled workflow: a DAG plus the executable function for
// each node. Produced by the DSL compiler. Rows carries the per-row
// implementation of each streamable operator (nil for batch-only nodes);
// the engine consults it when the plan fused a chain of such operators
// into one scheduled unit.
type Program struct {
	DAG  *core.DAG
	Fns  map[*core.Node]OpFunc
	Rows map[*core.Node]*RowOp
}

// Sizer lets values report their approximate serialized size cheaply, so
// the engine can evaluate Algorithm 2's condition without paying the
// serialization cost for results it will not materialize.
type Sizer interface {
	ApproxBytes() int64
}

// Biller is a model clock: besides whatever an operator sleeps on it, it
// bills every computed unit a modelled charge — for a fused run, the head
// with the head's inputs and the tail's output — advancing itself by the
// charge it returns. A run on a Biller executes one node at a time, loads
// included, on one worker.
type Biller interface {
	clock.Clock
	Bill(n *core.Node, inputs []any, output any) time.Duration
}

// Options configures an engine run. The planner's knobs travel as one
// plan.Options value the engine never inspects, so what conditions plan
// identity is decided in exactly one place (plan.Options, which helixlint
// checks field by field against the fingerprint) plus ConfigToken; every
// other field here acts at execution time only.
type Options struct {
	// Policy decides which out-of-scope intermediates to materialize. It
	// acts at retire time (Algorithm 2), not plan time; the session's
	// ConfigToken encodes which policy it is.
	Policy opt.MatPolicy
	// Plan is handed to the planner untouched: reuse, pruning, mandatory
	// output materialization, operator fusion (streaming) and shared-store
	// originality. The zero value plans batch-only with nothing mandatory;
	// New turns MaterializeOutputs and Streaming on, as a Session does.
	Plan plan.Options
	// Parallelism bounds the scheduler's compute worker pool: at most
	// this many operators compute concurrently, regardless of DAG width.
	// ≤0 uses runtime.GOMAXPROCS(0). Load-state nodes run on a separate
	// small I/O pool (max(Parallelism, 4), capped by the plan's load
	// count): loads are disk/throttle-bound, not CPU-bound, and must not
	// serialize behind compute on narrow hosts.
	Parallelism int
	// Sched selects the ready-queue ordering. The zero value,
	// SchedCriticalPath, pops the ready node with the longest projected
	// downstream compute chain first (NodePlan.ProjectedTail), so
	// stragglers start early on unbalanced DAGs; when no projections
	// exist (iteration 0) all priorities are zero and the order degrades
	// to exact FIFO. SchedFIFO forces pure arrival order; no Session sets
	// it — it is the oracle the engine's own tests compare against.
	Sched SchedMode
	// ConfigToken describes the engine-level configuration the run
	// executes under, for the plan cache's fingerprint: two runs with
	// differing tokens can never reuse each other's plans. Empty falls
	// back to the Cache's session-wide token.
	ConfigToken string
	// Observer, when non-nil, receives the run's structured events (plan
	// decided, node started/retired, flush barrier, iteration done).
	// Events are delivered serially but from worker goroutines; a nil
	// observer costs nothing.
	Observer Observer
	// Tenant labels this run's published artifacts for per-tenant byte
	// accounting in a shared store, which charges the policy's budget to
	// that label; empty outside shared mode.
	Tenant string
	// AdaptiveThreshold, when > 0, arms the mid-run divergence monitor:
	// whenever the cumulative measured time of completed nodes diverges
	// from their plan-projected time by more than this relative fraction
	// (e.g. 0.5 = 50%), the engine corrects the cost estimates of
	// not-yet-started nodes from the timings observed so far and re-plans
	// the iteration with one cold solve through the live store, outside the
	// plan cache. Not-yet-started compute nodes whose corrected estimate
	// makes loading cheaper are swapped to Load; a swapped node still
	// waits for its parents. At most 3 re-plans per run solve; one whose
	// corrections move no estimate plans nothing. Applies to Run/RunWith
	// only; Execute carries a prebuilt plan out verbatim. ≤ 0 disables
	// (the default).
	AdaptiveThreshold float64
}

// SchedMode selects the scheduler's ready-queue ordering policy.
type SchedMode int

const (
	// SchedCriticalPath orders the ready queue by the plan's projected
	// downstream critical path, longest first, falling back to FIFO when
	// projections are absent. The default.
	SchedCriticalPath SchedMode = iota
	// SchedFIFO preserves pure arrival order (the historical behavior);
	// kept as the engine tests' A/B oracle.
	SchedFIFO
)

// NodeReport is the per-node outcome of a run.
type NodeReport struct {
	State     core.State
	Component core.Component
	Seconds   float64 // own time t(n): compute or load duration
	MatSecs   float64 // materialization (serialize+write) time, if any
	Bytes     int64   // serialized size, if known
	// MatErr is why a result the policy chose to materialize is not in the
	// store: ErrUnserializable (wrapping the codec's error) when its type
	// could not be encoded, otherwise the disk write error. The run still
	// succeeded — later plans compute the node instead of loading it — so
	// this is the only place the failure shows.
	MatErr error
	// LoadErr is why the node's planned load failed in an earlier attempt
	// of this run (ErrLoadFailed, naming the key). The entry was removed,
	// so State is what the plan made after that did, usually StateCompute.
	LoadErr error
}

// Result summarizes one iteration's execution.
type Result struct {
	Iteration int
	// Values holds the value of every output node, keyed by node name.
	Values map[string]any
	// Nodes reports per-node state and timing, keyed by node name.
	Nodes map[string]NodeReport
	// Plan is the executed plan: states, costs, rationale, and the
	// projected time T(W,s) the run was expected to take. Call
	// Plan.Explain() for the per-node decision table.
	Plan *plan.Plan
	// Wall is the wall-clock duration of the run's compute critical path:
	// from Run entry until the last node finished, attempts that ended on
	// a failed load included. On the host's clock materialization is
	// write-behind: background writes overlap computation and are
	// excluded; the residual wait for stragglers is FlushWait. On a Biller
	// writes are inline, so Wall includes all materialization time, as
	// the paper measures.
	Wall time.Duration
	// PlanTime is the portion of Wall spent planning: change tracking,
	// slicing, cost assembly, fingerprinting, and — unless the plan cache
	// hit — the OPT-EXEC-PLAN solve, summed over every plan the run made.
	// Zero when Execute was called with a prebuilt plan. Plan.Cache says
	// whether the executed plan was solved cold or a cache hit.
	PlanTime time.Duration
	// FlushWait is the time Run spent blocked at the store's Flush
	// barrier after computation finished, waiting for write-behind
	// stragglers. Zero on a Biller, whose writes are inline.
	FlushWait time.Duration
	// Breakdown sums node times by workflow component (Figure 6).
	Breakdown map[core.Component]time.Duration
	// MatTime is the total time spent materializing results (Figure 6, gray).
	MatTime time.Duration
	// StorageBytes is the store usage after the run (Figure 9c,d).
	StorageBytes int64
	// StateCounts counts nodes per state among live nodes (Figure 8).
	StateCounts map[core.State]int
}

// Engine executes compiled workflows against a materialization store.
type Engine struct {
	Store *store.Store
	Opts  Options
	// Cache, when non-nil, enables plan reuse: successive Plan calls
	// fingerprint their inputs and reuse a recent plan wholesale on a
	// full match (zero solves). A Session always installs one; a bare
	// Engine plans cold every time.
	Cache *plan.Cache
	// Board, when non-nil, is the frozen statistics board of sessions
	// sharing one store: planning applies it, and each run publishes its
	// measured metrics to it, so every attached session plans from
	// identical solver inputs.
	Board *plan.StatsBoard

	// planMu serializes planning: the pooled solver's scratch buffers
	// (and the cache's planner pipeline) are not safe for concurrent
	// use, and Engine.Plan/Run were safe to call concurrently on
	// distinct programs before the solver was pooled. Planning is
	// millisecond-scale, so serializing it is cheap insurance.
	planMu sync.Mutex
	// solver is the pooled OPT-EXEC-PLAN solver: its flow network and
	// buffers are reused across iterations instead of reallocated per
	// solve.
	solver opt.Solver

	// unserializable remembers, by reflect.Type, the error of every value
	// type the store's codec has refused in this engine's lifetime, so a
	// later retirement of the same type reports it without paying for
	// another doomed encode.
	unserializable sync.Map
}

// New returns an engine with the paper's default configuration: streaming
// OMP with the given storage budget (≤ 0: none), which the store applies
// to every byte it holds, mandatory output materialization and operator
// fusion on.
func New(st *store.Store, budget int64) *Engine {
	return &Engine{
		Store: st,
		Opts: Options{
			Policy: opt.NewStreamingOMP(budget),
			Plan:   plan.Options{MaterializeOutputs: true, Streaming: true},
		},
	}
}

// storeView adapts the materialization store to the planner's read-only
// view.
type storeView struct{ st *store.Store }

func (v storeView) Lookup(key string) (int64, bool) {
	ent, ok := v.st.Entry(key)
	return ent.Size, ok
}

func (v storeView) EstimateLoad(size int64) time.Duration {
	return v.st.EstimateLoad(size)
}

// Plan builds the execution plan Run would carry out for d against the
// engine's store and options, without executing or mutating anything but
// d itself (signatures and carried metrics). prev is the previous
// iteration's DAG (nil at iteration 0) used for change tracking.
func (e *Engine) Plan(d *core.DAG, prev *core.DAG, iteration int) (*plan.Plan, error) {
	return e.PlanWith(d, prev, iteration, e.Opts)
}

// PlanWith is Plan under an explicit per-call configuration: the given
// Options replace the engine's for this call only, letting one engine
// serve run-scoped overrides (Session.Plan/Run options) without
// rebuilding its store, cache, or pooled solver. The options'
// ConfigToken flows into the plan fingerprint, so plans built under
// differing configurations are never confused by the cache.
func (e *Engine) PlanWith(d *core.DAG, prev *core.DAG, iteration int, opts Options) (*plan.Plan, error) {
	return e.plan(d, prev, iteration, opts, false)
}

// plan plans d through the live store. A mid-run re-plan (replan) solves
// cold over the DAG's metrics as they stand — the adaptive monitor's
// corrections, which a carry from prev would undo — and bypasses the plan
// cache: a correction changes the fingerprint, so the re-plan could never
// hit, and storing it could only evict the steady-state plan.
func (e *Engine) plan(d *core.DAG, prev *core.DAG, iteration int, opts Options, replan bool) (*plan.Plan, error) {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	pl := &plan.Planner{
		View:        storeView{e.Store},
		Opts:        opts.Plan,
		Board:       e.Board,
		Solver:      &e.solver,
		ConfigToken: opts.ConfigToken,
		SkipCarry:   replan,
	}
	if !replan {
		pl.Cache = e.Cache
	}
	p, err := pl.Plan(d, prev, iteration)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return p, nil
}

// nodeRun is the mutable per-node execution record.
type nodeRun struct {
	node *core.Node
	np   *plan.NodePlan
	fn   OpFunc
	// state is the state the run executes in: the plan row's, or Load
	// when the adaptive re-planner claimed the run first. After setup only
	// the worker that claims the run writes it; others read np.State.
	state   core.State
	value   any
	err     error
	ownSecs float64
	matSecs float64
	bytes   int64
	matErr  error // NodeReport.MatErr
	// deps counts not-yet-finished non-pruned parents; the scheduler
	// enqueues the node when it reaches zero. Loaded nodes start at zero:
	// they read from disk, not from parents.
	deps int32
	// pri is the run's scheduling priority: the plan's projected
	// downstream critical path (NodePlan.ProjectedTail) under
	// SchedCriticalPath, zero under SchedFIFO. seq is its arrival number
	// in the ready queue, the FIFO tie-break among equal priorities.
	pri float64
	seq int
	// pending counts children in Compute state that still need this node's
	// value; when it reaches zero the node is out of scope (Definition 5).
	pending int32
	retired int32
	// unit is the scheduled unit the run executes in, head first, tail
	// last: the run alone for an ordinary operator or a load (a one-element
	// view of execute's run slice), the shared member list for every member
	// of a fused run. Only the head (unit[0]) occupies a scheduler slot.
	// streamed marks members whose value is never built (every member but
	// the tail): retirement skips the materialization decision for them.
	unit     []*nodeRun
	streamed bool

	// claim decides how the run executes (see adaptive.go): the worker
	// that pops it CASes claimNone→claimCompute (as planned), the
	// re-planner swaps it by CASing claimNone→claimLoad.
	claim atomic.Int32
	// measured is the node's observed own duration (load or compute wall,
	// per the final state); valid when measuredOK. Folding it into the
	// node's carried Metrics is deferred to a single-threaded pass after
	// the flush barrier so a mid-run re-plan sees completed nodes' cost
	// keys byte-identical to the cached entry.
	measured   time.Duration
	measuredOK bool
	// baseC is the compute estimate (seconds) the initial plan priced the
	// node at; the divergence monitor's correction factors are expressed
	// against this base so repeated corrections stay idempotent. proj is
	// the node's current projected own time, refreshed by re-plans.
	baseC float64
	proj  float64
}

// Run plans and executes one iteration of the program. prev is the
// previous iteration's DAG (nil at iteration 0) used for change tracking;
// iteration seeds the nondeterminism nonce. On success the program's DAG
// carries updated metrics and should be retained as prev for the next
// iteration.
func (e *Engine) Run(ctx context.Context, prog *Program, prev *core.DAG, iteration int) (*Result, error) {
	return e.RunWith(ctx, prog, prev, iteration, e.Opts)
}

// RunWith is Run under an explicit per-call configuration (see PlanWith):
// policy, scheduling, pools, and observer all come from opts for this
// call only, so one engine can execute successive iterations under
// run-scoped overrides.
func (e *Engine) RunWith(ctx context.Context, prog *Program, prev *core.DAG, iteration int, opts Options) (*Result, error) {
	clk := clock.From(ctx)
	start := clk.Now()
	// Planning is on the critical path (Result.Wall runs from Run entry)
	// and reported apart as Result.PlanTime. An attempt whose load failed
	// removed that entry (execute), so the iteration plans again without
	// it: each retry removes an entry, and the loop ends.
	var planTime time.Duration
	loadErrs := map[string]error{}
	for {
		planStart := clk.Now()
		p, err := e.plan(prog.DAG, prev, iteration, opts, false)
		if err != nil {
			return nil, err
		}
		planTime += clk.Since(planStart)
		var ad *adaptState
		if opts.AdaptiveThreshold > 0 {
			ad = newAdaptState(e, prog.DAG, prev, opts)
		}
		res, err := e.execute(ctx, prog, p, clk, start, planTime, &opts, ad, loadErrs)
		if !errors.Is(err, ErrLoadFailed) {
			return res, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// Execute carries out a previously built plan against the program it was
// planned from (Engine.Run guarantees the pairing; callers using
// Session.Plan + Execute must pass the same compiled program). It applies
// the plan's purge decision, then runs every non-pruned node on the
// bounded scheduler. Result.Wall is measured from Execute entry; Run
// measures from its own entry so planning time is included there.
//
// A load that fails removes its entry, and Execute returns a *NodeError
// wrapping ErrLoadFailed: the caller's next plan computes the node.
func (e *Engine) Execute(ctx context.Context, prog *Program, p *plan.Plan) (*Result, error) {
	clk := clock.From(ctx)
	return e.execute(ctx, prog, p, clk, clk.Now(), 0, &e.Opts, nil, map[string]error{})
}

// execute carries out one plan. loadErrs holds the run's failed loads by
// node name, for the Result; this attempt's are added to it.
func (e *Engine) execute(ctx context.Context, prog *Program, p *plan.Plan, clk clock.Clock, start time.Time, planTime time.Duration, opts *Options, ad *adaptState, loadErrs map[string]error) (*Result, error) {
	d := prog.DAG
	// Fail fast on plan/program mispairing: fn lookup is by node pointer,
	// so a plan built from a different Compile of even the same workflow
	// would otherwise surface only as opaque "no function" failures.
	if p == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrBadPlan)
	}
	if len(p.Nodes) != d.Len() {
		return nil, fmt.Errorf("%w: plan covers %d nodes, program has %d", ErrBadPlan, len(p.Nodes), d.Len())
	}
	// Per-node execution records live in one slab; byID indexes them by
	// node ID, and a plan that lists a node twice leaves a slot empty.
	nodes := d.Nodes()
	slab := make([]nodeRun, len(p.Nodes))
	byID := make([]*nodeRun, len(p.Nodes))
	for i, np := range p.Nodes {
		n := np.Node
		if n.ID < 0 || n.ID >= len(nodes) || nodes[n.ID] != n {
			return nil, fmt.Errorf("%w: plan node %q does not belong to this program", ErrBadPlan, n.Name)
		}
		if byID[n.ID] != nil {
			return nil, fmt.Errorf("%w: plan lists node %q twice", ErrBadPlan, n.Name)
		}
		byID[n.ID] = &slab[i]
	}

	// The plan event opens the run's observer stream: the decision is
	// final here, before purge or any node starts.
	em := newEmitter(opts.Observer, p.Iteration)
	em.plan(p, planTime)

	// Purge deprecated materializations per the plan's decision: an
	// original node's old results can never be reused (paper §6.6). With
	// no deprecated names (always true in shared mode, where the plan
	// never deprecates) the keep predicate retains every entry, so the
	// whole scan is skipped.
	if p.Purge != nil && len(p.Purge.DeprecatedNames) > 0 {
		err := e.Store.Purge(func(key string, ent store.Entry) bool {
			return p.Purge.CurrentSigs[key] || !p.Purge.DeprecatedNames[ent.Name]
		})
		if err != nil {
			return nil, fmt.Errorf("exec: purge: %w", err)
		}
	}

	// The execution records, indexed both by plan order and (byID) by node
	// ID. Every run starts as a unit of one: a view of its own slot in
	// runs, so the executor has one shape to run and no per-node slice is
	// allocated. Only what runs has its function looked up.
	runs := make([]*nodeRun, len(p.Nodes))
	for i, np := range p.Nodes {
		r := &slab[i]
		r.node, r.np, r.state = np.Node, np, np.State
		r.unit = runs[i : i+1 : i+1]
		if r.state != core.StatePrune {
			r.fn = prog.Fns[np.Node]
		}
		runs[i] = r
	}

	// Wire the plan's fused runs into execution units. Each group is
	// validated against this program before use — a cached or test-mutated
	// plan whose members no longer line up (state changed, RowOp missing)
	// degrades to ordinary per-node batch execution rather than failing.
	for _, g := range p.Fused {
		ok := len(g) >= 2 && prog.Rows != nil
		for _, i := range g {
			if !ok || i < 0 || i >= len(runs) {
				ok = false
				break
			}
			if r := runs[i]; r.state != core.StateCompute || prog.Rows[r.node] == nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		unit := make([]*nodeRun, len(g))
		for k, i := range g {
			unit[k] = runs[i]
			runs[i].unit = unit
			runs[i].streamed = k < len(g)-1
		}
	}

	scheduled := 0
	for _, r := range runs {
		if r.state == core.StatePrune {
			// A live node the solver pruned is "retired" the moment the
			// run starts: it will never execute. Non-live nodes are
			// outside the program slice and emit nothing.
			if r.np.Live {
				em.node(r.node.Name, NodeRetired, core.StatePrune, 0, false, 0, nil, false)
			}
			continue
		}
		// Fused-run members ride inside their head's scheduler slot: they
		// still track pending (retirement) but never count as scheduled
		// work of their own.
		if r.unit[0] == r {
			scheduled++
		}
		var pending int32
		for _, ch := range r.node.Children() {
			if byID[ch.ID].state == core.StateCompute {
				pending++
			}
		}
		r.pending = pending
		if r.state == core.StateCompute {
			var deps int32
			for _, par := range r.node.Parents() {
				if byID[par.ID].state != core.StatePrune {
					deps++
				}
			}
			r.deps = deps
		}
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	bill, _ := clk.(Biller)
	st := &runState{
		engine:    e,
		opts:      opts,
		clk:       clk,
		bill:      bill,
		em:        em,
		plan:      p,
		runs:      byID,
		rows:      prog.Rows,
		times:     make([]atomic.Uint64, len(runs)),
		iteration: p.Iteration,
		cancel:    cancel,
	}
	if ad != nil {
		ad.arm(st, runs)
	}

	e.schedule(rctx, st, runs, scheduled)
	computeWall := clk.Since(start)

	// Write-behind barrier: wait for every materialization handed to the
	// store's writer pool before touching per-node accounting or letting
	// the caller observe the store. Runs on the error paths too, so a
	// failed iteration still quiesces its background writes. The flush
	// error is not returned: a failed write degrades to "not materialized",
	// and the request's OnDone has already recorded it on the node it
	// belongs to (NodeReport.MatErr) — in either mode. A run on a Biller
	// skips the barrier: it wrote inline, so nothing was handed off, and
	// Result.FlushWait is documented as zero there.
	var flushWait time.Duration
	if bill == nil {
		flushStart := clk.Now()
		_ = e.Store.Flush()
		flushWait = clk.Since(flushStart)
	}
	em.flush(flushWait)

	// A failed load outranks other failures, which may only be the
	// cancellation it caused. Delete drops the entry even when the file
	// cannot be removed: wasted space, never a wrong value.
	var loadErr error
	for _, r := range runs {
		if errors.Is(r.err, ErrLoadFailed) {
			loadErrs[r.node.Name] = r.err
			_ = e.Store.Delete(r.node.ChainSignature())
			if loadErr == nil {
				loadErr = &NodeError{Op: r.node.Name, Err: r.err}
			}
		}
	}
	if loadErr != nil {
		e.dropDamagedAncestors(runs)
		return nil, loadErr
	}
	if err := firstError(runs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fold measured timings of a successful attempt into the carried
	// per-node statistics. The executor defers these writes to this
	// single-threaded point (workers only record durations on their own
	// nodeRun) so that a mid-run re-plan reads stable metrics: completed
	// nodes' cost keys stay byte-identical to the run's cached plan entry,
	// and only the monitor's deliberate frontier corrections dirty the
	// fingerprint. Each observation feeds the node's decayed online
	// estimator (core.CostStat), not a last-value overwrite.
	for _, r := range runs {
		if !r.measuredOK {
			continue
		}
		if r.state == core.StateLoad {
			r.node.Metrics.ObserveLoad(r.measured)
		} else {
			r.node.Metrics.ObserveCompute(r.measured)
		}
	}

	// Shared-store mode: publish this run's measured metrics to the
	// process-wide statistics board (first writer wins) so every attached
	// session's planner sees identical solver inputs — the precondition
	// for cross-session fingerprint hits. After the flush barrier, so
	// write-behind size/load metrics have settled.
	if e.Board != nil {
		e.Board.Publish(d)
	}

	// Planner-health summary: cache outcome, total solve count (initial
	// plan plus adaptive re-plans), and what the divergence monitor did.
	totalSolves, replans, swapped := 0, 0, 0
	if p.Cache != plan.CacheHit {
		totalSolves = 1
	}
	if ad != nil {
		s, r, w, final := ad.summary()
		totalSolves += s
		replans, swapped = r, w
		if final != nil {
			// Swaps executed against a row-cloned plan; report that one so
			// Result.Plan reflects what actually ran. The cached entry's
			// rows were never touched.
			p = final
		}
	}
	em.runStats(p.Cache, totalSolves, replans, swapped)

	// Assemble the result.
	res := &Result{
		Iteration:   p.Iteration,
		Values:      make(map[string]any, len(d.Outputs())),
		Nodes:       make(map[string]NodeReport, len(runs)),
		Plan:        p,
		Breakdown:   make(map[core.Component]time.Duration, 3),
		StateCounts: make(map[core.State]int, 3),
	}
	for s, c := range p.Counts {
		res.StateCounts[s] = c
	}
	for _, r := range runs {
		res.Nodes[r.node.Name] = NodeReport{
			State:     r.state,
			Component: r.node.Component,
			Seconds:   r.ownSecs,
			MatSecs:   r.matSecs,
			Bytes:     r.bytes,
			MatErr:    r.matErr,
			LoadErr:   loadErrs[r.node.Name],
		}
		res.Breakdown[r.node.Component] += time.Duration(r.ownSecs * float64(time.Second))
		res.MatTime += time.Duration(r.matSecs * float64(time.Second))
		if r.np.Output {
			res.Values[r.node.Name] = r.value
		}
	}
	res.StorageBytes = e.Store.UsedBytes()
	res.Wall = computeWall
	res.PlanTime = planTime
	res.FlushWait = flushWait
	em.done(computeWall, flushWait)
	return res, nil
}

// dropDamagedAncestors drops, as a failed load is dropped, every stored
// artifact upstream of this attempt's failed loads that Store.Verify
// rejects. Damage rarely stops at one artifact (a torn copy or a renamed
// codec reaches the whole directory), and the next plan loads the nearest
// ancestor still stored: unchecked, a chain of damaged artifacts would cost
// one plan and dispatch per level instead of one.
func (e *Engine) dropDamagedAncestors(runs []*nodeRun) {
	checked := make(map[*core.Node]bool)
	for _, r := range runs {
		if !errors.Is(r.err, ErrLoadFailed) {
			continue
		}
		for a := range core.Ancestors(r.node) {
			if checked[a] {
				continue
			}
			checked[a] = true
			// Verify fails on a key with no entry too; Delete ignores it.
			if key := a.ChainSignature(); e.Store.Verify(key) != nil {
				_ = e.Store.Delete(key)
			}
		}
	}
}

// firstError scans the runs for failures, preferring a real operator or
// load error over the context-cancellation errors that cascade from it.
// Failures surface as *NodeError so callers can identify the operator
// with errors.As and classify the cause with errors.Is.
func firstError(runs []*nodeRun) error {
	var first error
	for _, r := range runs {
		if r.err == nil {
			continue
		}
		wrapped := &NodeError{Op: r.node.Name, Err: r.err}
		if !errors.Is(r.err, context.Canceled) && !errors.Is(r.err, context.DeadlineExceeded) {
			return wrapped
		}
		if first == nil {
			first = wrapped
		}
	}
	return first
}

// minLoadWorkers floors the I/O pool: loads spend their time in disk
// reads or the simulated-disk throttle sleep, not on a core, so even a
// single-CPU host overlaps several loads profitably (per-node goroutines
// used to give this overlap for free).
const minLoadWorkers = 4

// schedule executes every non-pruned run on bounded worker pools: a
// priority ready queue fed by parent-completion counts, drained by
// Options.Parallelism compute workers (default GOMAXPROCS), plus a small
// separate I/O pool for Load-state nodes — loads are disk/throttle-bound,
// and making them occupy compute slots would serialize their sleeps on
// narrow hosts, skewing the very reuse advantage loading exists to
// provide. Goroutine count is therefore independent of DAG size —
// thousands-of-node DAGs run on fixed pools instead of a goroutine per
// node.
//
// Dispatch is per-class. Compute runs go through the heap-based
// readyQueue ordered by the plan's projected downstream critical path
// (see Options.Sched), so the longest remaining chain claims a worker
// first; the queue degrades to exact FIFO when projections are absent or
// SchedFIFO is set. Load runs have no in-DAG dependencies and are
// prefilled into a channel — already sorted by the same priority, since
// a static order is all a pre-known set needs. The compute queue closes
// when the last node finishes; on failure the run context is canceled,
// which closes the queue (dropping not-yet-started work) and wakes every
// worker.
func (e *Engine) schedule(ctx context.Context, st *runState, runs []*nodeRun, scheduled int) {
	if scheduled == 0 {
		return
	}
	par := st.opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// A model run is serial: one worker, and loads queue beside computes
	// instead of overlapping them on the I/O pool.
	serial := st.bill != nil
	if serial {
		par = 1
	}
	if par > scheduled {
		par = scheduled
	}
	critPath := st.opts.Sched != SchedFIFO
	if critPath {
		for _, r := range runs {
			r.pri = r.np.ProjectedTail
		}
	}

	// Loads have no in-DAG dependencies (they read disk, not parents), so
	// the I/O queue is fully populated here and never written again.
	var loadRuns []*nodeRun
	for _, r := range runs {
		if r.state == core.StateLoad && !serial {
			loadRuns = append(loadRuns, r)
		}
	}
	if critPath {
		// Longest projected downstream chain loads first; stable sort
		// keeps plan order among ties, matching the FIFO fallback.
		sort.SliceStable(loadRuns, func(i, j int) bool { return loadRuns[i].pri > loadRuns[j].pri })
	}
	loads := make(chan *nodeRun, len(loadRuns))
	for _, r := range loadRuns {
		loads <- r
	}
	close(loads)

	ready := newReadyQueue()
	for _, r := range runs { // topological order: parents enqueue first
		if (r.state == core.StateCompute || serial && r.state == core.StateLoad) && r.unit[0] == r && atomic.LoadInt32(&r.deps) == 0 {
			ready.push(r)
		}
	}
	// Cancellation (operator failure, caller timeout) closes the ready
	// queue: queued-but-unstarted nodes are dropped and blocked workers
	// wake and exit, exactly as the old select-on-ctx.Done behaved.
	stopWatch := context.AfterFunc(ctx, ready.close)
	defer stopWatch()

	var remaining atomic.Int32
	remaining.Store(int32(scheduled))

	// finish runs a completed node's scheduling bookkeeping: release
	// children whose last dependency this was, and close the compute
	// queue after the overall last node (which may be a load). On failure,
	// descendants can never run; cancel closes the queue instead
	// (remaining never reaches zero).
	// release decrements the scheduling dependency of n's computing
	// children and enqueues any that became ready. Fused-run members are
	// skipped: they execute inside their head's slot, and a cross-group
	// member is released by its own head's unit completing, never by an
	// upstream finish.
	release := func(n *core.Node) {
		for _, ch := range n.Children() {
			cr := st.runs[ch.ID]
			if cr.np.State != core.StateCompute || cr.unit[0] != cr {
				continue
			}
			if atomic.AddInt32(&cr.deps, -1) == 0 {
				ready.push(cr)
			}
		}
	}
	finish := func(r *nodeRun) {
		if r.err != nil {
			st.cancel()
			return
		}
		// A fused unit's completion releases the children of every member
		// at once — interiors have none outside the unit by the fusion
		// rule, but the tail (and load/prune-fed interiors) can.
		for _, m := range r.unit {
			release(m.node)
		}
		if ad := st.adapt; ad != nil {
			// Feed the divergence monitor; this may trigger an inline
			// re-plan on this worker goroutine while the others proceed.
			ad.note(st, r)
		}
		if remaining.Add(-1) == 0 {
			ready.close()
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := ready.pop()
				if !ok {
					return
				}
				st.execNode(ctx, r)
				finish(r)
			}
		}()
	}
	ioPar := min(max(par, minLoadWorkers), len(loadRuns))
	for w := 0; w < ioPar; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var r *nodeRun
				select {
				case rr, ok := <-loads:
					if !ok {
						return
					}
					r = rr
				case <-ctx.Done():
					return
				}
				st.execNode(ctx, r)
				finish(r)
			}
		}()
	}
	wg.Wait()
}

// runState holds shared execution state.
type runState struct {
	engine *Engine
	// opts is the run's effective configuration: the engine's own Opts
	// for Run/Execute, or the per-call override for RunWith.
	opts *Options
	// clk times the run; bill is clk when it is a model (Biller), else nil.
	clk  clock.Clock
	bill Biller
	// em delivers observer events; nil when no observer is installed
	// (every emit method nil-checks the receiver).
	em   *emitter
	plan *plan.Plan
	// runs holds every node's run, indexed by node ID.
	runs []*nodeRun
	// rows is Program.Rows: per-row implementations for streamable
	// operators, consulted when executing fused units.
	rows map[*core.Node]*RowOp
	// times publishes each run's measured own time t(n), indexed by plan
	// order, as atomic float bits. Written once when a node finishes;
	// retirement sums ancestor entries to price C(n). A still-running
	// ancestor (reachable only through a loaded node) reads as zero — its
	// unfinished time is simply not part of the chain's bill, exactly as
	// the old done-channel gate behaved.
	times     []atomic.Uint64
	iteration int
	cancel    context.CancelFunc
	// adapt, when non-nil, is the armed mid-run divergence monitor
	// (Options.AdaptiveThreshold), fed by every successful completion.
	adapt *adaptState
}

// evict drops a non-output run's in-memory value (eager cache pruning,
// §5.4). Child reads of r.value are ordered by the scheduler and the
// pending counter protocol — a child runs only after its parents
// completed, and a parent cannot retire until every computing child has
// finished — so no lock is needed.
func (s *runState) evict(r *nodeRun) {
	if r.np.Output {
		return // outputs keep their value for Result
	}
	r.value = nil
}

// execNode runs one scheduled unit to completion: loads, or computes the
// head's function (a unit of one) or streams the head's input rows
// through every member's row operator (a fused run: only the tail's value
// is ever built), records timing, then retires out-of-scope nodes. The
// scheduler guarantees that a Compute node's parents have already
// finished, so inputs are read directly — no per-parent waiting.
func (s *runState) execNode(ctx context.Context, r *nodeRun) {
	unit := r.unit
	n := r.node
	// A panicking operator fails its run like an operator error: finish
	// cancels the run and firstError reports it.
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("%w: %v\n%s", ErrOperatorPanic, v, debug.Stack())
		}
	}()

	// A canceled run must not start new work: queued nodes can still win
	// the worker's select race against ctx.Done after a failure elsewhere,
	// and a throttled disk load would delay the error return by a whole
	// load duration.
	if err := ctx.Err(); err != nil {
		r.err = err
		return
	}

	// Claim the run. Losing the CAS means the adaptive re-planner swapped
	// it to a load first.
	if !r.claim.CompareAndSwap(claimNone, claimCompute) {
		r.state = core.StateLoad
	}

	fused := len(unit) > 1
	for _, m := range unit {
		s.em.node(m.node.Name, NodeStarted, m.state, 0, false, 0, nil, fused)
	}

	tail := unit[len(unit)-1]
	switch r.state {
	case core.StateLoad:
		value, dur, err := s.engine.Store.Load(s.clk, n.ChainSignature())
		if err != nil {
			// Ends the attempt (finish cancels the run); the store's error
			// names the key.
			r.err = fmt.Errorf("%w: %w", ErrLoadFailed, err)
			return
		}
		r.value = value
		r.ownSecs = dur.Seconds()
		r.measured = dur
		r.measuredOK = true
	case core.StateCompute:
		inputs := make([]any, len(n.Parents()))
		for i, p := range n.Parents() {
			pr := s.runs[p.ID]
			if pr.state == core.StatePrune {
				continue // infeasible per Constraint 2; nil input defensively
			}
			if pr.err != nil {
				r.err = fmt.Errorf("input %q failed", p.Name)
				return
			}
			inputs[i] = pr.value
		}
		var (
			value any
			err   error
			start = s.clk.Now()
		)
		if fused {
			ops := make([]*RowOp, len(unit))
			for i, m := range unit {
				ops[i] = s.rows[m.node]
			}
			value, err = RunRowOps(ctx, ops, inputs)
		} else if r.fn == nil {
			err = ErrNoFunction
		} else {
			value, err = r.fn(ctx, inputs)
		}
		if err != nil {
			r.err = err
			return
		}
		tail.value = value
		elapsed := s.clk.Since(start)
		if s.bill != nil {
			elapsed += s.bill.Bill(n, inputs, value)
		}
		// Per-member timing is unobservable inside a fused pipeline by
		// design: each member is charged an even share of the measured
		// wall, which keeps C(n) sums and Metrics-based cost models finite
		// and order-of-magnitude right.
		share := elapsed / time.Duration(len(unit))
		for _, m := range unit {
			m.ownSecs = share.Seconds()
			m.measured = share
			m.measuredOK = true
		}
	}

	// Publish the measured times for ancestor C(n) sums before any
	// retirement can read them.
	for _, m := range unit {
		s.times[m.np.Index].Store(math.Float64bits(m.ownSecs))
	}

	// Retirement cascade: the unit's completion may put the head's parents
	// out of scope; each interior's (never-built) value was consumed by
	// the next member, so interiors retire as the stream passes — their
	// streamed flag short-circuits the materialization decision; the tail
	// retires if it has no computing children, and can materialize under
	// its own chain signature, keeping cross-iteration reuse keyed exactly
	// as batch execution would. A run planned Compute counts in its
	// parents' pending even when swapped to a load, so it releases them
	// either way.
	if r.np.State == core.StateCompute {
		for _, p := range n.Parents() {
			if pr := s.runs[p.ID]; atomic.AddInt32(&pr.pending, -1) == 0 {
				s.retire(pr)
			}
		}
	}
	for _, m := range unit[:len(unit)-1] {
		if atomic.AddInt32(&m.pending, -1) == 0 {
			s.retire(m)
		}
	}
	if atomic.LoadInt32(&tail.pending) == 0 {
		s.retire(tail)
	}
}

// retire handles an out-of-scope node (Definition 5, Constraint 3): decide
// materialization via the policy (Algorithm 2), release the in-memory
// reference (eager cache pruning, §5.4), then emit the node's NodeRetired
// event with the settled outcome as known at this moment (async writes
// still in the writer pool report unmaterialized; see NodeEvent).
func (s *runState) retire(r *nodeRun) {
	if !atomic.CompareAndSwapInt32(&r.retired, 0, 1) {
		return
	}
	materialized, bytes, matErr := s.retireValue(r)
	if r.err == nil {
		s.em.node(r.node.Name, NodeRetired, r.state, r.ownSecs, materialized, bytes, matErr, len(r.unit) > 1)
	}
}

// retireValue applies the retirement decision and reports whether the
// node's result is known to be on disk at this point, plus its serialized
// size when known, and why a write the policy asked for did not happen
// when that is already known (see NodeEvent.MatErr). The policy and
// materialization mode come from the run's effective options, so a
// run-scoped policy override governs this run's materialization decisions
// too, not only its plan.
func (s *runState) retireValue(r *nodeRun) (materialized bool, bytes int64, matErr error) {
	n := r.node
	if r.streamed {
		// A fused run's non-tail member: its value was never built (rows
		// streamed straight through), so there is nothing to evict and
		// nothing the policy could materialize.
		return false, 0, nil
	}
	if r.state != core.StateCompute || r.err != nil {
		// Loaded results are on disk by construction: just release the
		// cache reference. Pruned nodes have no value.
		if r.state == core.StateLoad {
			s.evict(r)
		}
		return r.err == nil && r.state == core.StateLoad, n.Metrics.Size, nil
	}
	e := s.engine
	pol := s.opts.Policy
	if !n.Deterministic && (pol == nil || !pol.Blind()) {
		// A nondeterministic result is a single random draw: it can never
		// serve as an equivalent materialization (Definition 3), so writing
		// it only wastes storage and time. Cost-aware policies skip it;
		// blind ones (HELIX AM, DeepDive) pay for it — the paper's reason
		// AM fails to finish MNIST (§6.6). Evict unless it is an output.
		s.evict(r)
		return false, 0, nil
	}
	key := n.ChainSignature()
	if e.Store.Has(key) {
		// Equivalent result already materialized: nothing to write, but
		// eager cache pruning (§5.4) still applies.
		s.evict(r)
		return true, n.Metrics.Size, nil
	}

	mandatory := r.np.MandatoryMat
	// Cumulative run time C(n) per Definition 6, the policy's payoff
	// input. The plan precomputed the node's ancestor set as a bitset, so
	// pricing C(n) is a bit scan over the atomic times table instead of a
	// graph traversal: measured times of finished ancestors sum in, while
	// pruned ancestors and still-running ones (reachable only through a
	// loaded node) read as zero — the latter are simply not part of this
	// chain's bill. Computed here, on the retiring goroutine, so the
	// write-behind path can capture a finished value.
	var cum float64
	if !mandatory {
		cum = r.ownSecs
		s.plan.ForEachAncestor(r.np.Index, func(j int) {
			cum += math.Float64frombits(s.times[j].Load())
		})
		// Ask before paying for the answer: no artifact loads faster than
		// an empty one, so a value refused at that load time is refused at
		// any size and is evicted here, not serialized (on this goroutine
		// or a writer's) to learn a size that cannot change the answer.
		if pol == nil || !pol.Worthwhile(n, cum, e.Store.EstimateLoad(0).Seconds()) {
			s.evict(r)
			return false, 0, nil
		}
	}
	// A type the codec has already refused fails the same way again: report
	// it without encoding (mandatory outputs included — they are lost to
	// the store either way).
	valueType := reflect.TypeOf(r.value)
	if prior, failed := e.unserializable.Load(valueType); failed {
		r.matErr = prior.(error)
		s.evict(r)
		return false, 0, r.matErr
	}

	// One request, whoever processes it. Values that can report their size
	// cheaply (Sizer) get the size-dependent policy decision here —
	// skipping the request entirely on a "no" — while the rest defer it to
	// the request's Decide, which learns the size by encoding. Either way
	// the store admits the write against the policy's budget by its
	// encoded size; a mandatory output carries no budget, so it is written
	// past one, though its bytes count against it like any others.
	req := store.WriteRequest{
		Key:       key,
		Name:      n.Name,
		Iteration: s.iteration,
		Tenant:    s.opts.Tenant,
		Value:     r.value,
		Clock:     s.clk,
	}
	if !mandatory {
		req.Budget = pol.Budget()
		if sz, ok := r.value.(Sizer); ok {
			if !pol.Decide(n, cum, e.Store.EstimateLoad(sz.ApproxBytes()).Seconds()) {
				s.evict(r)
				return false, 0, nil
			}
		} else {
			req.Decide = func(size int64) bool {
				return pol.Decide(n, cum, e.Store.EstimateLoad(size).Seconds())
			}
		}
	}
	req.OnDone = func(out store.WriteOutcome) {
		// May run on a writer goroutine; Run reads these after Flush.
		r.matSecs += out.Secs
		switch {
		case out.EncodeErr != nil:
			r.matErr = fmt.Errorf("%w: node %q (%v): %v", ErrUnserializable, n.Name, valueType, out.EncodeErr)
			e.unserializable.Store(valueType, r.matErr)
		case out.Err != nil:
			r.matErr = fmt.Errorf("exec: node %q not materialized: %w", n.Name, out.Err)
		}
		if out.OnDisk() {
			// Written here, or a deduplicated publish (another session's
			// write won): the artifact exists either way, at this size.
			r.bytes = out.Entry.Size
			n.Metrics.Size = out.Entry.Size
			n.Metrics.Load = e.Store.EstimateLoad(out.Entry.Size)
		}
	}
	// The run's clock selects only who processes the request: on a Biller
	// this goroutine, in place, charging serialization and the write to
	// the critical path (and knowing the outcome at retirement); on any
	// other clock the store's writer pool, so the nodes waiting on this
	// goroutine are not held behind either — the write is then still in
	// flight when the node retires and reports unmaterialized; Result.Nodes
	// carries the settled outcome after Flush. A failed encode or write
	// degrades to "not materialized" in both.
	if s.bill != nil {
		if out := e.Store.Write(req); out.OnDisk() {
			materialized, bytes = true, out.Entry.Size
		}
		matErr = r.matErr
	} else {
		e.Store.PutAsync(req)
	}
	// Eager cache pruning applies either way: a queued request holds the
	// only reference its pending write needs.
	s.evict(r)
	return materialized, bytes, matErr
}
