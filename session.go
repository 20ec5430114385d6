package helix

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"helix/internal/core"
	"helix/internal/exec"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// Result reports one iteration's execution: output values, per-node
// states and timings, component breakdown (Figure 6), materialization
// overhead, storage and memory statistics.
type Result = exec.Result

// NodeReport is the per-operator outcome within a Result.
type NodeReport = exec.NodeReport

// Policy selects the materialization strategy (paper §6.1's system
// variants).
type Policy int

const (
	// PolicyOpt is HELIX OPT: the streaming OMP heuristic (Algorithm 2).
	PolicyOpt Policy = iota
	// PolicyAlways is HELIX AM: materialize every intermediate result.
	PolicyAlways
	// PolicyNever is HELIX NM: never materialize intermediates.
	PolicyNever
	// PolicyOptMiniBatch adapts the streaming heuristic to mini-batch
	// stream processing (paper §5.3, "Mini-Batches"): materialization
	// decisions are made from the first batch processed end-to-end and
	// replayed for every subsequent batch, avoiding dataset fragmentation.
	PolicyOptMiniBatch
	// PolicyOptAmortized extends the streaming heuristic with the paper's
	// future-work user model (§5.3): materialization payoff is weighted
	// by the survey-derived probability that the operator survives the
	// next iteration's change. Set Options.Domain to select the change
	// distribution.
	PolicyOptAmortized
)

// Options is the original monolithic configuration struct, kept as a
// compatibility shim: NewSession(dir, Options{...}) behaves exactly like
// Open(dir, WithOptions(Options{...})), and every field has a functional
// option counterpart (see the Option constructors and the README's
// migration table).
//
// Deprecated: configure sessions with Open and functional options, which
// additionally support run-scoped overrides on Run and Plan.
//
// helixlint (fingerprintfields) checks every field against configToken
// (and its budget helper), the plan-cache conditioning token: a new
// engine-level knob must feed the token or carry an //lint:fpexempt
// reason saying why plan reuse is safe without it.
//
//lint:fingerprint configToken budget
type Options struct {
	// Policy selects the materialization strategy. Default PolicyOpt.
	Policy Policy
	// StorageBudget caps materialized bytes for PolicyOpt; ≤0 means the
	// paper's default of 10 GB (§6.3).
	StorageBudget int64
	// OMPThreshold overrides Algorithm 2's load-cost multiplier for
	// PolicyOpt; 0 means the paper's value of 2. Exposed for the ablation
	// benchmark.
	OMPThreshold float64
	// Domain selects the change-probability distribution for
	// PolicyOptAmortized ("census", "nlp", "genomics", "mnist").
	Domain string
	// DisableReuse turns off cross-iteration reuse (the KeystoneML and
	// DeepDive baselines do not reuse automatically).
	//lint:fpexempt planner-level knob; enters the fingerprint via plan.Options.DisableReuse
	DisableReuse bool
	// DisablePruning turns off program slicing (ablation).
	//lint:fpexempt planner-level knob; enters the fingerprint via plan.Options.DisablePruning
	DisablePruning bool
	// SampleMemory enables heap sampling for Figure 10.
	//lint:fpexempt observability only; sampling never changes what is planned or computed
	SampleMemory bool
	// DPRSlowdown multiplies DPR operator cost (models DeepDive's
	// Python/shell preprocessing; §6.5.2). 0 or 1 disables.
	//lint:fpexempt execution-side sleep; its effect reaches the fingerprint through the carried cost statistics of the runs it slows
	DPRSlowdown float64
	// LISlowdown multiplies L/I operator cost (models KeystoneML's
	// training-data caching miss; §6.5.2). 0 or 1 disables.
	//lint:fpexempt execution-side sleep; its effect reaches the fingerprint through the carried cost statistics of the runs it slows
	LISlowdown float64
	// DiskBytesPerSec simulates a disk with the given throughput for
	// loads and writes; 0 uses real disk speed. The paper's environment
	// is 170 MB/s (§6.3).
	//lint:fpexempt simulated throughput shapes measured load costs, which reach the fingerprint as per-node load estimates
	DiskBytesPerSec float64
	// SyncMaterialization disables write-behind materialization: results
	// are serialized and written inline on the worker goroutine that
	// computed them, putting the full materialization cost back on each
	// iteration's critical path. Default false (write-behind).
	//lint:fpexempt write-behind vs inline changes when bytes hit disk, not what is planned
	SyncMaterialization bool
	// MatWriters sizes the store's background writer pool for write-behind
	// materialization; ≤0 uses the store default.
	//lint:fpexempt store writer-pool sizing, not plan identity
	MatWriters int
	// Parallelism bounds the execution scheduler's worker pool: at most
	// this many operators run concurrently, regardless of DAG width. ≤0
	// uses runtime.GOMAXPROCS(0).
	Parallelism int
	// PlanCache controls the iteration-over-iteration plan cache. The
	// zero value, PlanCacheOn, fingerprints every iteration's planning
	// inputs (DAG topology, chain signatures, the store's materialized
	// set, carried statistics, options) and reuses the previous
	// iteration's plan wholesale on a full match — skipping slicing,
	// ancestor-bitset construction, and the max-flow solve — or
	// re-solves only the changed components on a partial match.
	// PlanCacheOff forces a cold solve every iteration.
	//lint:fpexempt controls the plan cache itself; a mode change can only force cold solves, never stale reuse
	PlanCache PlanCacheMode
	// CriticalPath selects the execution scheduler's ready-queue
	// ordering. The zero value, SchedCriticalPath, starts the ready node
	// with the longest projected downstream chain first (using the
	// plan's ProjectedTail values) so stragglers on unbalanced DAGs
	// claim workers early; it degrades to FIFO when no projections
	// exist. SchedFIFO forces pure arrival order.
	//lint:fpexempt ready-queue ordering changes execution interleaving, never the plan
	CriticalPath SchedMode
	// DisableStreaming turns off fused streaming execution: every
	// streamable operator (MapRows/FilterRows/FlatMapRows) runs as an
	// ordinary batch operator with its own scheduler slot and fully
	// built output. Default false (streaming on).
	//lint:fpexempt planner-level knob; enters the fingerprint via plan.Options.Streaming
	DisableStreaming bool
	// Codec selects the store's serialization format. The zero value,
	// CodecBinary, is the columnar binary codec; CodecGob writes legacy
	// encoding/gob. Both read either format (the binary header is
	// sniffed), so existing artifacts stay loadable across the switch.
	//lint:fpexempt serialization format; both codecs read either format, so materialized artifacts stay valid across a switch
	Codec Codec
}

// Codec selects the materialization store's serialization format
// (Options.Codec, WithCodec).
type Codec int

const (
	// CodecBinary writes the columnar binary format: varint numerics,
	// interned strings, columnar layouts for the repo's row types, a
	// gob escape hatch for everything else — behind a versioned header.
	CodecBinary Codec = iota
	// CodecGob writes legacy encoding/gob, for A/B comparison and
	// byte-level compatibility testing. Reads both formats.
	CodecGob
)

// PlanCacheMode toggles the session's plan cache (Options.PlanCache).
type PlanCacheMode int

const (
	// PlanCacheOn enables incremental planning (the default).
	PlanCacheOn PlanCacheMode = iota
	// PlanCacheOff re-solves the execution plan from scratch every
	// iteration (the pre-cache behavior).
	PlanCacheOff
)

// SchedMode selects the scheduler's ready-queue ordering
// (Options.CriticalPath).
type SchedMode = exec.SchedMode

// Scheduler orderings: critical-path priority (default) or pure FIFO.
const (
	SchedCriticalPath = exec.SchedCriticalPath
	SchedFIFO         = exec.SchedFIFO
)

// DefaultStorageBudget is the paper's experimental storage budget (§6.3).
const DefaultStorageBudget = 10 << 30

// Session executes successive iterations of a workflow, carrying the
// previous iteration's DAG and materialization store across runs — the
// workflow lifecycle of Figure 2. Sessions persist their change-tracking
// state (node signatures, operator statistics, and iteration history)
// next to the store, so reopening a session on the same directory
// resumes reuse across process restarts.
//
// A Session supports one Run at a time: a second concurrent Run returns
// ErrConcurrentRun rather than queueing (see Run). Plan is read-only and
// may be called concurrently with itself and with Run.
type Session struct {
	store  *store.Store
	engine *exec.Engine
	dir    string
	// att is the session's handle on a shared store (WithSharedStore);
	// nil for a private store. When set, the session detaches on Close
	// instead of closing the store, pins its last executed plan's
	// signatures against purging, and skips session.json persistence —
	// many sessions share one directory, and cross-session reuse flows
	// through the content-addressed store and shared plan cache instead.
	att *store.Attachment
	// base is the session-scoped configuration Open resolved; Run/Plan
	// copy it and layer run-scoped overrides on the copy.
	base config

	// polMu guards policies, the memoized materialization-policy
	// instances keyed by config.policyKey. Memoization makes run-scoped
	// policy overrides stateful in the useful sense: reverting to a
	// configuration resumes its policy's budget accounting.
	//lint:nolockio
	polMu    sync.Mutex
	policies map[string]opt.MatPolicy

	// running rejects concurrent Run calls (ErrConcurrentRun).
	running atomic.Bool

	// mu guards the iteration state below; critical sections are short
	// (snapshot at Run entry, update at Run exit) so Plan and History can
	// read consistently while a Run is in flight. State persistence
	// snapshots under the lock and writes after release.
	//lint:nolockio
	mu      sync.Mutex
	prev    *core.DAG
	iter    int
	history []IterationRecord
	closed  bool
	// runActive is true while a Run is between its entry snapshot and its
	// final state update; Close waits on runDone until it clears so the
	// store is never torn down under an executing iteration.
	runActive bool
	runDone   *sync.Cond
}

// sessionStateFile holds the persisted snapshot within the store dir.
const sessionStateFile = "session.json"

// sessionState is the on-disk session record.
type sessionState struct {
	Iteration int               `json:"iteration"`
	Snapshot  core.Snapshot     `json:"snapshot"`
	History   []IterationRecord `json:"history,omitempty"`
}

// Open opens a session whose materialization store lives in dir,
// configured by functional options:
//
//	sess, err := helix.Open(dir,
//	    helix.WithPolicy(helix.PolicyOpt),
//	    helix.WithParallelism(8),
//	    helix.WithObserver(progress))
//
// If the directory holds a previous session's state, change tracking
// resumes from it: unchanged operators can reuse results materialized
// before the restart. The options form the session's baseline
// configuration; Run and Plan accept the same (run-scoped) options as
// per-call overrides.
func Open(dir string, opts ...Option) (*Session, error) {
	var cfg config
	if err := cfg.apply(opts, false); err != nil {
		return nil, err
	}
	// Build and validate the materialization policy before anything
	// stateful opens: the historical unknown-policy branch returned after
	// store.Open without closing it, leaking the writer pool. Failing
	// first means a bad configuration can never leak resources.
	pol, err := buildPolicy(&cfg)
	if err != nil {
		return nil, err
	}
	var (
		st  *store.Store
		att *store.Attachment
	)
	if cfg.shared != nil {
		// Shared mode: attach to the cross-session store (dir is ignored —
		// the store owns its directory). Store-level settings were either
		// adopted from this config (first attach) or validated against the
		// first session's (ErrSharedConfig on conflict).
		att, err = cfg.shared.attach(&cfg)
		if err != nil {
			return nil, err
		}
		st = att.Store()
	} else {
		st, err = store.Open(dir)
		if err != nil {
			return nil, err
		}
		st.DiskBytesPerSec = cfg.o.DiskBytesPerSec
		st.Writers = cfg.o.MatWriters
		if cfg.o.Codec == CodecGob {
			st.Codec = store.GobCodec{}
		}
	}
	s := &Session{
		store:    st,
		att:      att,
		dir:      st.Dir(),
		base:     cfg,
		policies: map[string]opt.MatPolicy{cfg.policyKey(): pol},
	}
	s.runDone = sync.NewCond(&s.mu)
	s.engine = &exec.Engine{Store: st, Opts: s.execOptions(&cfg, pol)}
	switch {
	case cfg.shared != nil:
		// The process-wide plan cache + frozen statistics board replace the
		// per-session MRU: a workflow any attached session planned is a
		// zero-solve fingerprint hit for every other session under the same
		// configuration (the config token is still hashed per call, so
		// differing configurations never share decisions).
		s.engine.Shared = cfg.shared.cache
		if cfg.o.PlanCache != PlanCacheOff {
			s.engine.Cache = cfg.shared.cache.Cache()
		}
	case cfg.o.PlanCache != PlanCacheOff:
		// The config token pins every engine-level setting plan reuse
		// must be conditioned on: a run under a different policy, budget,
		// threshold, domain, or parallelism — whether a differently
		// opened session or a run-scoped override — fingerprints
		// differently and can never reuse this configuration's decisions.
		s.engine.Cache = plan.NewCache(cfg.configToken())
	}
	if att == nil {
		// session.json is per-session state; shared-mode sessions share one
		// directory and resume reuse through the content-addressed store
		// and shared plan cache instead.
		s.loadState()
	}
	return s, nil
}

// NewSession opens a session configured by at most one legacy Options
// struct. It is a shim over Open: NewSession(dir, o) ≡
// Open(dir, WithOptions(o)).
//
// Deprecated: use Open with functional options.
func NewSession(dir string, options ...Options) (*Session, error) {
	if len(options) > 1 {
		return nil, tagged(ErrBadConfig, fmt.Errorf("helix: at most one Options value"))
	}
	if len(options) == 1 {
		return Open(dir, WithOptions(options[0]))
	}
	return Open(dir)
}

// buildPolicy constructs the materialization policy a config selects, or
// an error satisfying errors.Is(err, ErrPolicyUnknown).
func buildPolicy(cfg *config) (opt.MatPolicy, error) {
	budget := cfg.budget()
	switch cfg.o.Policy {
	case PolicyOpt:
		somp := opt.NewStreamingOMP(budget)
		if cfg.o.OMPThreshold > 0 {
			somp.Threshold = cfg.o.OMPThreshold
		}
		return somp, nil
	case PolicyAlways:
		return opt.AlwaysMat{}, nil
	case PolicyNever:
		return opt.NeverMat{}, nil
	case PolicyOptMiniBatch:
		somp := opt.NewStreamingOMP(budget)
		if cfg.o.OMPThreshold > 0 {
			somp.Threshold = cfg.o.OMPThreshold
		}
		return opt.NewMiniBatchOMP(somp), nil
	case PolicyOptAmortized:
		aomp := opt.NewAmortizedOMP(opt.SurveyChangeModel(cfg.o.Domain), budget)
		if cfg.o.OMPThreshold > 0 {
			aomp.Threshold = cfg.o.OMPThreshold
		}
		return aomp, nil
	default:
		return nil, tagged(ErrPolicyUnknown, fmt.Errorf("helix: unknown policy %d", cfg.o.Policy))
	}
}

// policyFor returns the memoized policy instance for cfg's policy
// configuration, constructing it on first use.
func (s *Session) policyFor(cfg *config) (opt.MatPolicy, error) {
	key := cfg.policyKey()
	s.polMu.Lock()
	defer s.polMu.Unlock()
	if pol, ok := s.policies[key]; ok {
		return pol, nil
	}
	pol, err := buildPolicy(cfg)
	if err != nil {
		return nil, err
	}
	s.policies[key] = pol
	return pol, nil
}

// execOptions lowers a resolved config (plus its policy instance) to the
// engine-level options one Plan/Run call executes under.
func (s *Session) execOptions(cfg *config, pol opt.MatPolicy) exec.Options {
	return exec.Options{
		Policy:              pol,
		DisableReuse:        cfg.o.DisableReuse,
		MaterializeOutputs:  cfg.o.Policy != PolicyNever,
		DPRSlowdown:         cfg.o.DPRSlowdown,
		LISlowdown:          cfg.o.LISlowdown,
		SampleMemory:        cfg.o.SampleMemory,
		DisablePruning:      cfg.o.DisablePruning,
		SyncMaterialization: cfg.o.SyncMaterialization,
		DisableStreaming:    cfg.o.DisableStreaming,
		Parallelism:         cfg.o.Parallelism,
		Sched:               cfg.o.CriticalPath,
		IOWorkers:           cfg.ioWorkers,
		ConfigToken:         cfg.configToken(),
		Observer:            cfg.observer,
		Shared:              cfg.shared != nil,
		Tenant:              cfg.tenant,
		AdaptiveThreshold:   cfg.adaptive,
		AdaptiveMaxSolves:   cfg.adaptiveSolves,
	}
}

// runConfig resolves one Run/Plan call's effective configuration: the
// session baseline plus run-scoped overrides, with the policy memoized
// and every cache-relevant knob folded into the config token.
func (s *Session) runConfig(opts []Option) (exec.Options, error) {
	cfg := s.base
	cfg.err = nil
	if err := cfg.apply(opts, true); err != nil {
		return exec.Options{}, err
	}
	pol, err := s.policyFor(&cfg)
	if err != nil {
		return exec.Options{}, err
	}
	return s.execOptions(&cfg, pol), nil
}

// PlanCacheStats reports the session's plan-cache consultation counters:
// full fingerprint hits (plans reused with zero solves), partial hits
// (only dirty components re-solved), and misses (cold solves). All zero
// when the cache is disabled.
func (s *Session) PlanCacheStats() plan.CacheStats {
	if s.engine.Cache == nil {
		return plan.CacheStats{}
	}
	return s.engine.Cache.Stats()
}

// loadState restores persisted change-tracking state; absence or
// corruption silently degrades to a fresh session (everything original).
// Stale saveState temp files (a process that crashed between CreateTemp
// and Rename) are swept here so they cannot accumulate across restarts.
func (s *Session) loadState() {
	if stale, err := filepath.Glob(filepath.Join(s.dir, sessionStateFile+".tmp-*")); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	data, err := os.ReadFile(filepath.Join(s.dir, sessionStateFile))
	if err != nil {
		return
	}
	var st sessionState
	if err := json.Unmarshal(data, &st); err != nil {
		return
	}
	s.iter = st.Iteration
	s.prev = core.FromSnapshot(st.Snapshot)
	s.history = st.History
}

// saveState persists change-tracking state (and the iteration history)
// for restart resumption. A failed write is non-fatal: the next process
// simply recomputes. The write is atomic — temp file then rename — so a
// crash mid-write can never leave a truncated session.json behind; the
// previous snapshot (or none) survives intact and loadState's corruption
// handling is reserved for genuinely external damage.
func (s *Session) saveState() {
	s.mu.Lock()
	if s.prev == nil {
		s.mu.Unlock()
		return
	}
	st := sessionState{
		Iteration: s.iter,
		Snapshot:  s.prev.Snapshot(),
		History:   append([]IterationRecord(nil), s.history...),
	}
	s.mu.Unlock()
	data, err := json.Marshal(st)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, sessionStateFile+".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	// CreateTemp opens 0600; restore the file's historical 0644 so external
	// tooling inspecting the session directory keeps read access.
	merr := tmp.Chmod(0o644)
	// Sync before the rename: POSIX does not order data writes against the
	// rename, so without it a system crash could make the new name durable
	// while its contents are not — the truncated-file outcome this whole
	// dance exists to rule out.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || merr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, sessionStateFile)); err != nil {
		os.Remove(tmp.Name())
	}
}

// Iteration returns the index of the next iteration to run (0-based).
func (s *Session) Iteration() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.iter
}

// StorageBytes reports the store's current on-disk usage (Figure 9c,d).
func (s *Session) StorageBytes() int64 { return s.store.UsedBytes() }

// Plan compiles wf and returns the execution plan Run would carry out for
// it right now — per-node states, costs, originality, liveness, the
// projected run time T(W,s) of Equation 1, and a rationale for every
// decision — without executing anything. Run-scoped options override the
// session baseline for this call only, so an override's plan can be
// inspected before (or without) running it. Planning is read-only with
// respect to the session: the iteration counter, the previous iteration's
// DAG, and the materialization store are left untouched, so Plan may be
// called any number of times (and interleaved with Run) purely for
// inspection. Render the result with Plan.Explain() or Workflow.PlanDOT.
func (s *Session) Plan(wf *Workflow, opts ...Option) (*Plan, error) {
	s.mu.Lock()
	prev, iter, closed := s.prev, s.iter, s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	eo, err := s.runConfig(opts)
	if err != nil {
		return nil, err
	}
	prog, err := wf.Compile()
	if err != nil {
		return nil, err
	}
	return s.engine.PlanWith(prog.DAG, prev, iter, eo)
}

// Run compiles and executes one iteration of wf, then advances the
// session: the executed DAG becomes the previous iteration for change
// tracking on the next Run (paper §2.2: "The updated workflow W_{t+1}
// fed back to HELIX marks the beginning of a new iteration").
//
// Run-scoped options override the session baseline for this call only —
// policy, budget, parallelism, worker classes, scheduler, reuse/pruning
// toggles, observer. Overrides are plan-cache safe: the effective
// configuration is folded into the plan fingerprint, so differing
// configurations never reuse each other's plans, and reverting an
// override hits the earlier configuration's cached plan again.
//
// A Session runs one iteration at a time. A second Run while one is in
// flight returns ErrConcurrentRun immediately — calls are rejected, not
// serialized, because change tracking is defined against the previous
// completed iteration and queueing would make the result order (and thus
// every subsequent plan) depend on scheduler timing. Run after Close
// returns ErrSessionClosed.
func (s *Session) Run(ctx context.Context, wf *Workflow, opts ...Option) (*Result, error) {
	if !s.running.CompareAndSwap(false, true) {
		return nil, ErrConcurrentRun
	}
	defer s.running.Store(false)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.runActive = true
	prev, iter := s.prev, s.iter
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.runActive = false
		s.runDone.Broadcast()
		s.mu.Unlock()
	}()
	eo, err := s.runConfig(opts)
	if err != nil {
		return nil, err
	}
	prog, err := wf.Compile()
	if err != nil {
		return nil, err
	}
	started := time.Now()
	res, err := s.engine.RunWith(ctx, prog, prev, iter, eo)
	if err != nil {
		if errors.Is(err, exec.ErrRowType) {
			// A streamable operator declared over the wrong element type:
			// the declaration is at fault, not the run.
			err = tagged(ErrBadWorkflow, err)
		}
		return nil, err
	}
	// Write-behind barrier: the engine already drains its own iteration's
	// writes, but the explicit Flush here is the documented contract — no
	// materialization accepted by run N may be invisible to run N+1, and
	// the manifest on disk reflects everything this iteration stored.
	// The error is discarded on purpose: an individual write failure
	// degrades to "not materialized" (identically in sync and async
	// modes), it never fails the iteration — the computed outputs are
	// already in hand.
	_ = s.store.Flush()
	if s.att != nil {
		// Pin this run's full signature set: everything the session's
		// current results load from (or could re-load from) is now
		// protected from another session's purge until the next Run
		// replaces the pins or Close releases them.
		sigs := make([]string, 0, len(res.Plan.Nodes))
		for _, np := range res.Plan.Nodes {
			sigs = append(sigs, np.Node.ChainSignature())
		}
		s.att.Repin(sigs)
	}
	s.mu.Lock()
	s.recordHistory(wf, res, started, changedOperators(prog.DAG, prev))
	s.prev = prog.DAG
	s.iter++
	s.mu.Unlock()
	if s.att == nil {
		s.saveState()
	}
	return res, nil
}

// RunTimed is Run plus a convenience wall-clock duration, for harness
// code that aggregates cumulative run time (Figure 5).
func (s *Session) RunTimed(ctx context.Context, wf *Workflow, opts ...Option) (*Result, time.Duration, error) {
	start := time.Now()
	res, err := s.Run(ctx, wf, opts...)
	return res, time.Since(start), err
}

// Close flushes any write-behind materializations still in flight, stops
// the store's writer pool, and persists the session's change-tracking
// state. The session and its store directory remain readable afterwards;
// a session reopened on the same directory resumes reuse and its
// iteration history. Always call Close (directly or deferred) when done
// with a session — otherwise background writes may still be in flight
// when the process exits. Close is idempotent; Run and Plan after Close
// return ErrSessionClosed.
//
// Close is safe to call while a Run is in flight: it blocks until that
// iteration completes (the iteration itself runs to completion and its
// results remain valid), then tears down the store. Run calls that start
// after Close has begun return ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for s.runActive {
		s.runDone.Wait()
	}
	s.mu.Unlock()
	if s.att != nil {
		// Shared store: flush this session's writes and release its pins;
		// the store itself stays open for other sessions and is torn down
		// by SharedStore.Close.
		return s.att.Detach()
	}
	s.saveState()
	return s.store.Close()
}
