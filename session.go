package helix

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// resumes reuse across process restarts. The state is session.json, a
// base rewritten only when it is compacted, plus session.journal, one
// appended record per Run since; Run and Close say what survives what.
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
	// signatures against purging, and skips session-state persistence —
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

	// The persistence state below belongs to whoever holds the run slot —
	// Open, a Run after its state update (runActive still set), Close after
	// runs drained — so it needs no lock, and no lock is held across its
	// I/O. persisted is the snapshot the base and journal on disk add up
	// to, the baseline of the next record's delta; dirty says the journal
	// holds records the base lacks (or failed to take one), so Close
	// compacts; persistErr is the first failed append or compaction, which
	// Close returns.
	persisted  []core.NodeSnapshot
	journal    *store.Journal
	dirty      bool
	persistErr error
}

// The session state's base and journal within the store dir.
const (
	sessionStateFile   = "session.json"
	sessionJournalFile = "session.journal"
)

// sessionState is the base: the whole state as of its Iteration.
type sessionState struct {
	Iteration int               `json:"iteration"`
	Snapshot  core.Snapshot     `json:"snapshot"`
	History   []IterationRecord `json:"history,omitempty"`
}

// sessionRecord is one session.journal record: what one Run changed.
type sessionRecord struct {
	// Iteration is the session's iteration counter after the run. Replay
	// skips a record the base already covers, so a crash between a
	// compaction's rename and its removal of the journal is harmless.
	Iteration int             `json:"iteration"`
	Record    IterationRecord `json:"record"`
	Delta     snapshotDelta   `json:"delta"`
}

// snapshotDelta turns one snapshot into the next: about twenty nodes on a
// thousand-node DAG's no-op or leaf edit, where the whole snapshot is a
// thousand.
type snapshotDelta struct {
	// Set holds the nodes that are new or whose chain signature or
	// metrics changed.
	Set []core.NodeSnapshot `json:"set,omitempty"`
	// Order lists every node name, in order, and is null unless the
	// sequence of names changed; a node that disappeared is one Order
	// leaves out. (An empty, non-null Order is an empty snapshot.)
	Order []string `json:"order"`
}

// diffSnapshot is the delta that turns old into cur.
func diffSnapshot(old, cur []core.NodeSnapshot) snapshotDelta {
	var d snapshotDelta
	same := len(old) == len(cur)
	for i := 0; same && i < len(cur); i++ {
		same = old[i].Name == cur[i].Name
	}
	if same {
		for i := range cur {
			if cur[i] != old[i] {
				d.Set = append(d.Set, cur[i])
			}
		}
		return d
	}
	byName := make(map[string]core.NodeSnapshot, len(old))
	for _, n := range old {
		byName[n.Name] = n
	}
	d.Order = make([]string, len(cur))
	for i, n := range cur {
		d.Order[i] = n.Name
		if p, ok := byName[n.Name]; !ok || p != n {
			d.Set = append(d.Set, n)
		}
	}
	return d
}

// apply turns old, whose name → position index is pos, into the next
// snapshot and returns it with its index, or false when d does not fit
// old: a Set node old lacks with no Order to place it, a name in neither,
// a name twice, a Set node Order leaves out. Without an Order, old and
// pos are updated in place (the replay owns them), so a record costs what
// it carries, not the size of the snapshot.
func (d snapshotDelta) apply(old []core.NodeSnapshot, pos map[string]int) ([]core.NodeSnapshot, map[string]int, bool) {
	if d.Order == nil {
		for _, n := range d.Set {
			if _, ok := pos[n.Name]; !ok {
				return nil, nil, false
			}
		}
		for _, n := range d.Set {
			old[pos[n.Name]] = n
		}
		return old, pos, true
	}
	set := make(map[string]core.NodeSnapshot, len(d.Set))
	for _, n := range d.Set {
		if _, dup := set[n.Name]; dup {
			return nil, nil, false
		}
		set[n.Name] = n
	}
	out := make([]core.NodeSnapshot, len(d.Order))
	outPos := make(map[string]int, len(d.Order))
	used := 0
	for i, name := range d.Order {
		if _, dup := outPos[name]; dup {
			return nil, nil, false
		}
		outPos[name] = i
		if n, ok := set[name]; ok {
			out[i] = n
			used++
		} else if j, ok := pos[name]; ok {
			out[i] = old[j]
		} else {
			return nil, nil, false
		}
	}
	return out, outPos, used == len(set)
}

// replayState applies the intact prefix of journal to st, a parsed base,
// record by record, and returns the result with the prefix's length in
// bytes. A record past a gap in the iterations, or whose delta does not
// fit, ends the replay like a torn frame. The base snapshot is taken as
// FromSnapshot reads it (first of duplicate names), which is what the
// deltas were computed against.
func replayState(st sessionState, journal []byte) (sessionState, int) {
	if len(journal) == 0 {
		return st, 0
	}
	st.History = slices.Clip(st.History) // appends never write into the caller's array
	nodes := core.FromSnapshot(st.Snapshot).Snapshot().Nodes
	pos := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pos[n.Name] = i
	}
	n := store.Frames(journal, func(payload []byte) bool {
		var rec sessionRecord
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		if rec.Iteration <= st.Iteration {
			return true
		}
		if rec.Iteration != st.Iteration+1 {
			return false
		}
		next, nextPos, ok := rec.Delta.apply(nodes, pos)
		if !ok {
			return false
		}
		nodes, pos = next, nextPos
		st.Iteration = rec.Iteration
		st.History = append(st.History, rec.Record)
		return true
	})
	st.Snapshot = core.Snapshot{Nodes: nodes}
	return st, n
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
		// What the store already holds was admitted under this budget by
		// an earlier process; a fresh policy that ignored it would let a
		// reopened store grow to twice its budget. Charged whole, mandatory
		// outputs included: Open cannot tell them apart, and a purge
		// releases every byte it frees (Release of a negative size).
		if used := s.store.UsedBytes(); used > 0 {
			if rel, ok := pol.(interface{ Release(int64) }); ok {
				rel.Release(-used)
			}
		}
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
		// Session state is per-session; shared-mode sessions share one
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
		model, _ := opt.SurveyChangeModel(pc.Domain) // WithDomain vetted it
		aomp := opt.NewAmortizedOMP(model, pc.Budget)
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
// full fingerprint hits (plans reused with zero solves) and misses (cold
// solves).
func (s *Session) PlanCacheStats() plan.CacheStats { return s.engine.Cache.Stats() }

// loadState restores persisted change-tracking state: the base, then the
// journal's intact prefix. Absence degrades silently to a fresh session
// (everything original), and so does a corrupt base — its journal holds
// deltas against a state nobody can read any more. A journal that was
// there is compacted at once, so appends never land behind a torn tail.
// Compactions that crashed before their rename leave temp files, swept
// here so they cannot accumulate across restarts.
func (s *Session) loadState() {
	if stale, err := filepath.Glob(filepath.Join(s.dir, sessionStateFile+".tmp-*")); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	s.journal = store.NewJournal(filepath.Join(s.dir, sessionJournalFile))
	var st sessionState
	data, err := os.ReadFile(filepath.Join(s.dir, sessionStateFile))
	fresh := os.IsNotExist(err)
	valid := err == nil && json.Unmarshal(data, &st) == nil
	journal, jerr := os.ReadFile(filepath.Join(s.dir, sessionJournalFile))
	if fresh || valid {
		st, _ = replayState(st, journal)
		if valid || st.Iteration > 0 {
			s.iter = st.Iteration
			s.prev = core.FromSnapshot(st.Snapshot)
			s.history = st.History
			s.persisted = s.prev.Snapshot().Nodes // as replay reads the base
		}
	}
	if !os.IsNotExist(jerr) {
		s.dirty = true
		s.compactState()
	}
}

// journalState appends what this Run changed to the journal: the
// iteration's record and the snapshot's delta against the persisted one.
// That is one small marshal and one write(2) — no fsync, no rename, no
// copy of the history. A failure fails nothing: it is kept for Close,
// whose compaction writes the whole state.
func (s *Session) journalState(dag *core.DAG, iter int, rec IterationRecord) {
	nodes := dag.Snapshot().Nodes
	data, err := json.Marshal(sessionRecord{Iteration: iter, Record: rec, Delta: diffSnapshot(s.persisted, nodes)})
	s.persisted = nodes
	s.dirty = true
	if err == nil {
		err = s.journal.Append(data)
	}
	s.keepErr(err)
}

// compactState writes the whole state as the base — temp file, fsync,
// rename — and removes the journal: the only fsync session persistence
// makes. With no state yet there is no base to write, and a journal
// left over is stale. A failed write keeps the journal, which is still
// the only record of what the base lacks.
func (s *Session) compactState() {
	if !s.dirty {
		return
	}
	if s.prev != nil {
		data, err := json.Marshal(sessionState{
			Iteration: s.iter,
			Snapshot:  core.Snapshot{Nodes: s.persisted},
			History:   s.history,
		})
		if err == nil {
			err = store.WriteFileSync(filepath.Join(s.dir, sessionStateFile), data)
		}
		if err != nil {
			s.keepErr(err)
			s.journal.Close()
			return
		}
	}
	s.dirty = false
	s.keepErr(s.journal.Remove())
}

// keepErr remembers err if it is the session's first persistence error.
func (s *Session) keepErr(err error) {
	if err != nil && s.persistErr == nil {
		s.persistErr = fmt.Errorf("helix: persist session state: %w", err)
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
// policy, budget, parallelism, reuse/pruning toggles,
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
//
// Durability: before Run returns, the iteration's change-tracking state
// is appended to the session journal — written, not fsynced. It survives
// a crash of the process (the kernel holds it) but not necessarily a
// power loss; Close makes it durable. A journal cut short by either
// restores an earlier iteration's state, exactly what a crash just before
// the append would leave, and because reuse is keyed by chain signature
// that costs recomputation, never a wrong value. A failed append does not
// fail Run; Close reports it.
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
	started := time.Now() // IterationRecord.Started: a calendar timestamp, not a timer
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
	// the manifest journal records everything this iteration stored.
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
	s.recordHistory(wf, res, started, changedOperators(prog.DAG))
	rec := s.history[len(s.history)-1]
	s.prev = prog.DAG
	s.iter++
	iterNow := s.iter
	s.mu.Unlock()
	if s.att == nil {
		s.journalState(prog.DAG, iterNow, rec)
	}
	return res, nil
}

// Close flushes any write-behind materializations still in flight, stops
// the store's writer pool, and compacts the session state and the store's
// manifest: each base is rewritten with an fsync and its journal removed,
// so once Close returns the state survives a power loss. It returns the
// first error persistence met since Open — a failed journal append, a
// failed compaction — wrapped so errors.Is reaches the cause, or else the
// store's. The session and its store directory remain readable afterwards;
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
	s.compactState()
	serr := s.store.Close()
	if s.persistErr != nil {
		return s.persistErr
	}
	return serr
}
