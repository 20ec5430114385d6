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
	// next iteration's change. WithDomain selects the change distribution.
	PolicyOptAmortized
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
	// instances keyed by their configuration. Memoization makes run-scoped
	// policy overrides stateful in the useful sense: reverting to a
	// configuration resumes its policy's budget accounting.
	//lint:nolockio
	polMu    sync.Mutex
	policies map[policyConfig]opt.MatPolicy

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
	cfg := defaultConfig()
	if err := cfg.apply(opts, false); err != nil {
		return nil, err
	}
	if cfg.exec.Tenant != "" && cfg.shared == nil {
		return nil, tagged(ErrBadConfig, fmt.Errorf("helix: WithTenant(%q) needs WithSharedStore: a private store keeps no per-tenant accounting", cfg.exec.Tenant))
	}
	// Build and validate the materialization policy before anything
	// stateful opens: the historical unknown-policy branch returned after
	// store.Open without closing it, leaking the writer pool. Failing
	// first means a bad configuration can never leak resources.
	pol, err := buildPolicy(cfg.policy)
	if err != nil {
		return nil, err
	}
	s := &Session{base: cfg, policies: map[policyConfig]opt.MatPolicy{cfg.policy: pol}}
	s.runDone = sync.NewCond(&s.mu)
	s.engine = &exec.Engine{Opts: cfg.execOptions(pol)}
	if cfg.shared != nil {
		// Shared mode: attach to the cross-session store (dir is ignored —
		// the store owns its directory). Store-level settings were either
		// adopted from this config (first attach) or validated against the
		// first session's (ErrSharedConfig on conflict).
		s.att, err = cfg.shared.attach(cfg.store, cfg.exec.Tenant)
		if err != nil {
			return nil, err
		}
		s.store = s.att.Store()
		// The process-wide plan cache + frozen statistics board replace the
		// per-session MRU: a workflow any attached session planned is a
		// zero-solve fingerprint hit for every other session under the same
		// configuration (the config token is still hashed per call, so
		// differing configurations never share decisions).
		s.engine.Shared = cfg.shared.cache
		s.engine.Cache = cfg.shared.cache.Cache()
	} else {
		s.store, err = store.Open(dir)
		if err != nil {
			return nil, err
		}
		cfg.store.applyTo(s.store)
		// The config token pins every engine-level setting plan reuse
		// must be conditioned on: a run under a different policy, budget,
		// threshold, domain, or parallelism — whether a differently
		// opened session or a run-scoped override — fingerprints
		// differently and can never reuse this configuration's decisions.
		s.engine.Cache = plan.NewCache(s.engine.Opts.ConfigToken)
	}
	s.engine.Store = s.store
	s.dir = s.store.Dir()
	if s.att == nil {
		// session.json is per-session state; shared-mode sessions share one
		// directory and resume reuse through the content-addressed store
		// and shared plan cache instead.
		s.loadState()
	}
	return s, nil
}

// buildPolicy constructs the materialization policy pc selects, or an
// error satisfying errors.Is(err, ErrPolicyUnknown).
func buildPolicy(pc policyConfig) (opt.MatPolicy, error) {
	switch pc.Policy {
	case PolicyOpt:
		somp := opt.NewStreamingOMP(pc.Budget)
		if pc.Threshold > 0 {
			somp.Threshold = pc.Threshold
		}
		return somp, nil
	case PolicyAlways:
		return opt.AlwaysMat{}, nil
	case PolicyNever:
		return opt.NeverMat{}, nil
	case PolicyOptMiniBatch:
		somp := opt.NewStreamingOMP(pc.Budget)
		if pc.Threshold > 0 {
			somp.Threshold = pc.Threshold
		}
		return opt.NewMiniBatchOMP(somp), nil
	case PolicyOptAmortized:
		aomp := opt.NewAmortizedOMP(opt.SurveyChangeModel(pc.Domain), pc.Budget)
		if pc.Threshold > 0 {
			aomp.Threshold = pc.Threshold
		}
		return aomp, nil
	default:
		return nil, tagged(ErrPolicyUnknown, fmt.Errorf("helix: unknown policy %d", pc.Policy))
	}
}

// policyFor returns the memoized policy instance for pc, constructing it
// on first use.
func (s *Session) policyFor(pc policyConfig) (opt.MatPolicy, error) {
	s.polMu.Lock()
	defer s.polMu.Unlock()
	if pol, ok := s.policies[pc]; ok {
		return pol, nil
	}
	pol, err := buildPolicy(pc)
	if err != nil {
		return nil, err
	}
	s.policies[pc] = pol
	return pol, nil
}

// runConfig resolves one Run/Plan call's effective configuration: the
// session baseline plus run-scoped overrides, with the policy memoized
// and every cache-relevant knob folded into the config token.
func (s *Session) runConfig(opts []Option) (exec.Options, error) {
	cfg := s.base
	if err := cfg.apply(opts, true); err != nil {
		return exec.Options{}, err
	}
	pol, err := s.policyFor(cfg.policy)
	if err != nil {
		return exec.Options{}, err
	}
	return cfg.execOptions(pol), nil
}

// PlanCacheStats reports the session's plan-cache consultation counters:
// full fingerprint hits (plans reused with zero solves), partial hits
// (only dirty components re-solved), and misses (cold solves).
func (s *Session) PlanCacheStats() plan.CacheStats { return s.engine.Cache.Stats() }

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
// policy, budget, parallelism, worker classes, reuse/pruning toggles,
// observer. Overrides are plan-cache safe: the effective
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
