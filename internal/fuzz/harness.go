package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"helix"
	"helix/internal/store"
)

// Violation reports one invariant failure observed while running a Case.
type Violation struct {
	Invariant string `json:"invariant"`
	Iteration int    `json:"iteration"`
	Detail    string `json:"detail"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("invariant %s violated at iteration %d: %s", v.Invariant, v.Iteration, v.Detail)
}

// Stats accumulates coverage counters across RunCase calls, so a smoke
// run can assert it actually exercised the interesting planner paths
// (full fingerprint hits in particular) rather than vacuously passing.
type Stats struct {
	Cases      int
	Iterations int
	ColdPlans  int
	FullHits   int
	// Restarts counts mid-sequence close/reopen cycles executed;
	// Cancels counts mid-run cancellation attempts, of which
	// CancelAborted actually aborted the run (the rest outran the
	// cancellation).
	Restarts      int
	Cancels       int
	CancelAborted int
	// EvictCases counts cases generated in eviction-pressure mode
	// (Config.EvictPressure); Evictions counts manifest keys that
	// disappeared between iterations of budgeted cases — actual slot
	// churn, the behaviour eviction pressure exists to force.
	EvictCases int
	Evictions  int
	// Damaged counts artifacts the corruption mode damaged (invariant 13);
	// LoadFailures counts the subject's loads that failed on them.
	Damaged      int
	LoadFailures int
}

// options lowers the case configuration to session options.
func (c Config) options() ([]helix.Option, error) {
	opts := []helix.Option{helix.WithParallelism(c.Parallelism)}
	switch c.Policy {
	case "opt":
		opts = append(opts, helix.WithPolicy(helix.PolicyOpt))
		if c.BudgetBytes > 0 {
			opts = append(opts, helix.WithStorageBudget(c.BudgetBytes))
		}
	case "always":
		opts = append(opts, helix.WithPolicy(helix.PolicyAlways))
	case "never":
		opts = append(opts, helix.WithPolicy(helix.PolicyNever))
	default:
		return nil, fmt.Errorf("fuzz: unknown policy %q", c.Policy)
	}
	return opts, nil
}

// oracleThreshold is the OMP threshold the invariant-4 oracle plans
// under. The threshold never reaches the OPT-EXEC-PLAN solve — it only
// steers Algorithm 2's materialization decisions at execution time — but
// it IS part of the plan fingerprint's configuration token, so planning
// with a threshold the subject never uses gives a guaranteed-fresh solve
// over the very same session state (previous DAG, carried statistics,
// store view) without ever aliasing the subject's cache entries. The
// value is within rounding distance of the paper's default 2, so the
// oracle's plan options are semantically identical to the subject's.
const oracleThreshold = 2.000001

// adaptiveSiblingThreshold picks the divergence threshold the adaptive
// sibling (invariant 10) arms: the case's random draw when it made one,
// else a sensitive default — the sibling is always on, so every case
// exercises the monitor's claim protocol even when the generator drew no
// threshold.
func adaptiveSiblingThreshold(c Config) float64 {
	if c.Adaptive > 0 {
		return c.Adaptive
	}
	return 0.25
}

// RunCase executes one fuzz case end to end and checks every invariant
// at every iteration. Two private sibling sessions run the same
// workflow sequence — the subject and an adaptive sibling with the
// mid-run divergence monitor armed — beside the invariant-9 pair on one
// shared store, and a from-scratch reference evaluation provides
// ground-truth values. The case may also schedule mid-sequence restarts
// (every session closed and reopened) and mid-run cancellations of the
// subject. The returned Violation is nil when every invariant held; err
// reports harness infrastructure failures only. stats may be nil.
func RunCase(ctx context.Context, dir string, c *Case, stats *Stats) (*Violation, error) {
	baseOpts, err := c.Config.options()
	if err != nil {
		return nil, err
	}
	siblings := []struct {
		sub   string
		extra []helix.Option
	}{
		{"subject", nil},
		{"adaptive", []helix.Option{helix.WithAdaptive(adaptiveSiblingThreshold(c.Config))}},
	}
	// Invariant-9 pair: two sessions attached to one shared
	// content-addressed store, running the same sequence as the private
	// siblings. The handle outlives restarts (it is process state, like a
	// real multi-session deployment); the sessions detach and reattach.
	sharedDir := filepath.Join(dir, "shared")
	sharedHandle, err := helix.OpenSharedStore(sharedDir)
	if err != nil {
		return nil, err
	}
	defer sharedHandle.Close()

	sess := make([]*helix.Session, len(siblings))
	var sharedA, sharedB *helix.Session
	openAll := func() error {
		for i, sib := range siblings {
			s, err := helix.Open(filepath.Join(dir, sib.sub),
				append(append([]helix.Option{}, baseOpts...), sib.extra...)...)
			if err != nil {
				return err
			}
			sess[i] = s
		}
		var err error
		if sharedA, err = helix.Open("", append(append([]helix.Option{}, baseOpts...),
			helix.WithSharedStore(sharedHandle), helix.WithTenant("a"))...); err != nil {
			return err
		}
		if sharedB, err = helix.Open("", append(append([]helix.Option{}, baseOpts...),
			helix.WithSharedStore(sharedHandle), helix.WithTenant("b"))...); err != nil {
			return err
		}
		return nil
	}
	closeAll := func() error {
		var first error
		for i, s := range sess {
			if s == nil {
				continue
			}
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
			sess[i] = nil
		}
		for _, sp := range []**helix.Session{&sharedA, &sharedB} {
			if *sp == nil {
				continue
			}
			if err := (*sp).Close(); err != nil && first == nil {
				first = err
			}
			*sp = nil
		}
		return first
	}
	if err := openAll(); err != nil {
		closeAll()
		return nil, err
	}
	defer closeAll()
	restarts := indexSet(c.Restarts)
	cancels := indexSet(c.Cancels)

	if stats != nil {
		stats.Cases++
		if c.Config.EvictPressure {
			stats.EvictCases++
		}
	}
	subjectStoreDir := filepath.Join(dir, "subject")
	mandatorySigs := make(map[string]bool)
	prevManifest := make(map[string]int64)
	// Invariant 13: the keys whose artifact is damaged on disk, and those
	// whose damaged artifact already failed a load.
	damaged := make(map[string]bool)
	failed := make(map[string]bool)

	cur := cloneSpecs(c.Base)
	for it, edits := range c.Iters {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cur = applyEdits(cur, edits)
		wf, err := BuildWorkflow(fmt.Sprintf("fuzz%d", c.Seed), cur)
		if err != nil {
			return nil, err
		}
		viol := func(inv, format string, args ...any) *Violation {
			return &Violation{Invariant: inv, Iteration: it, Detail: fmt.Sprintf(format, args...)}
		}

		// Invariant 6 (restart consistency): close every sibling and
		// reopen on the same directories. The iteration counter and the
		// per-iteration history must survive the round trip.
		if restarts[it] {
			pre := sess[0].History()
			preIter := sess[0].Iteration()
			if err := closeAll(); err != nil {
				return nil, err
			}
			if err := openAll(); err != nil {
				return nil, err
			}
			if stats != nil {
				stats.Restarts++
			}
			if got := sess[0].Iteration(); got != preIter {
				return viol("restart-history", "iteration counter %d after restart, want %d", got, preIter), nil
			}
			post := sess[0].History()
			if len(post) != len(pre) || len(post) != it {
				return viol("restart-history", "history has %d records after restart, want %d (iterations run: %d)",
					len(post), len(pre), it), nil
			}
			for i := range post {
				if post[i].Iteration != i || post[i].Iteration != pre[i].Iteration ||
					post[i].WorkflowName != pre[i].WorkflowName ||
					post[i].StorageBytes != pre[i].StorageBytes {
					return viol("restart-history",
						"history record %d diverged across restart: {iter:%d wf:%q bytes:%d} vs {iter:%d wf:%q bytes:%d}",
						i, post[i].Iteration, post[i].WorkflowName, post[i].StorageBytes,
						pre[i].Iteration, pre[i].WorkflowName, pre[i].StorageBytes), nil
				}
			}
		}
		subject, adaptSess := sess[0], sess[1]

		// Invariant 13: damage artifacts behind the subject's back, after
		// the previous run's write-behind barrier and before anything
		// plans this iteration.
		for _, d := range c.Damages {
			if d.Iter != it {
				continue
			}
			key, err := damage(subjectStoreDir, d)
			if err != nil {
				return nil, err
			}
			if key != "" {
				damaged[key] = true
				delete(failed, key)
				if stats != nil {
					stats.Damaged++
				}
			}
		}

		// Invariant-4 oracle: a fresh cold solve against the subject's
		// current state, taken BEFORE the run so both see the same
		// previous-iteration DAG, carried statistics, and store contents.
		oracle, oerr := subject.Plan(wf, helix.WithOMPThreshold(oracleThreshold))
		if oerr != nil {
			return viol("run-error", "oracle plan failed: %v", oerr), nil
		}

		var res *helix.Result
		if cancels[it] {
			// Invariant 6 (cancellation): run the subject under a context
			// canceled on the first node lifecycle event. An aborted run
			// must surface a cancellation error, leave the session usable,
			// and not advance the iteration; a run that outruns the
			// cancellation counts as this iteration's run (its plan was
			// solved against the same state the oracle saw).
			if stats != nil {
				stats.Cancels++
			}
			cctx, stop := context.WithCancel(ctx)
			attempt, aerr := subject.Run(cctx, wf, helix.WithObserver(func(ev helix.RunEvent) {
				if _, ok := ev.(helix.NodeEvent); ok {
					stop()
				}
			}))
			stop()
			if aerr == nil {
				res = attempt
			} else {
				if stats != nil {
					stats.CancelAborted++
				}
				if !errors.Is(aerr, context.Canceled) {
					return viol("cancel-error", "canceled run failed with non-cancellation error: %v", aerr), nil
				}
				if got := subject.Iteration(); got != it {
					return viol("cancel-error", "aborted run advanced iteration counter to %d, want %d", got, it), nil
				}
				// The aborted attempt may have materialized retired nodes
				// before the cancellation landed; re-solve the oracle over
				// the store as the attempt left it so invariant 4 compares
				// plans over identical state.
				oracle, oerr = subject.Plan(wf, helix.WithOMPThreshold(oracleThreshold))
				if oerr != nil {
					return viol("run-error", "oracle re-plan after aborted run failed: %v", oerr), nil
				}
				res, err = subject.Run(ctx, wf)
				if err != nil {
					return viol("cancel-error", "run after aborted attempt failed: %v", err), nil
				}
			}
		} else {
			res, err = subject.Run(ctx, wf)
			if err != nil {
				return viol("run-error", "subject run failed: %v", err), nil
			}
		}
		adaptRes, err := adaptSess.Run(ctx, wf)
		if err != nil {
			return viol("run-error", "adaptive run failed: %v", err), nil
		}
		// Invariant 13: only a damaged artifact fails to load, and it fails
		// once. (The run may still end loading the key: an attempt after
		// the failure can write it anew.) The plan that ran was made over a
		// store the invariant-4 oracle did not see, so invariant 4 skips
		// the iteration.
		var loadFailed []string
		for name, nr := range res.Nodes {
			if nr.LoadErr == nil {
				continue
			}
			key := res.Plan.ByName(name).Node.ChainSignature()
			switch {
			case !errors.Is(nr.LoadErr, helix.ErrLoadFailed):
				return viol("corrupt-load", "node %s: LoadErr %v does not wrap ErrLoadFailed", name, nr.LoadErr), nil
			case !damaged[key]:
				return viol("corrupt-load", "node %s: load of an undamaged artifact failed: %v", name, nr.LoadErr), nil
			case failed[key]:
				return viol("corrupt-load", "node %s: damaged artifact %s was loaded again after its load failed", name, key), nil
			}
			failed[key] = true
			loadFailed = append(loadFailed, key)
		}
		if stats != nil {
			stats.LoadFailures += len(loadFailed)
		}

		if stats != nil {
			stats.Iterations++
			switch res.Plan.Cache {
			case helix.PlanCacheCold:
				stats.ColdPlans++
			case helix.PlanCacheHit:
				stats.FullHits++
			}
		}

		// Invariant 3a: required outputs are never pruned and never
		// missing; 3c: nondeterministic operators are never loaded.
		for _, ns := range cur {
			if !ns.Output {
				continue
			}
			np := res.Plan.ByName(ns.Name)
			if np == nil || np.State == helix.StatePrune {
				return viol("output-pruned", "output %s planned as pruned (plan %v)", ns.Name, res.Plan.Cache), nil
			}
			if v, ok := res.Values[ns.Name]; !ok || v == nil {
				return viol("output-pruned", "output %s missing from Result.Values (state %v)", ns.Name, np.State), nil
			}
		}
		for _, np := range res.Plan.Nodes {
			if np.Live && !np.Node.Deterministic && np.State == helix.StateLoad {
				return viol("nondet-load", "nondeterministic node %s assigned StateLoad", np.Node.Name), nil
			}
		}

		// Invariant 3b: reuse never changes values — every output equals
		// the from-scratch reference evaluation, byte for byte.
		ref := Reference(cur)
		for name, want := range ref {
			if d := valueDiff(res.Values[name], want); d != "" {
				return viol("reuse-correctness", "output %s diverged from reference: %s (plan %v, state %v)",
					name, d, res.Plan.Cache, res.Plan.ByName(name).State), nil
			}
		}

		// Invariant 10: adaptive transparency — whatever the divergence
		// monitor did mid-run (corrected estimates, cold re-solves,
		// compute→load swaps, or nothing), the outputs are byte-identical
		// to the adaptive-off subject's.
		for name := range ref {
			if d := valueDiff(res.Values[name], adaptRes.Values[name]); d != "" {
				return viol("adaptive-equivalence", "output %s: adaptive (threshold %g) vs subject: %s (adaptive plan %v)",
					name, adaptiveSiblingThreshold(c.Config), d, adaptRes.Plan.Cache), nil
			}
		}

		// Invariant 9: shared-store transparency and no wasteful
		// recompute. Two sessions attached to one content-addressed store
		// run the same iteration: outputs must stay byte-identical to the
		// private-store reference, and a deterministic live node whose
		// artifact is already published must not be recomputed when
		// loading it is cheaper — with the artifact on disk the solver
		// faces a strict load-vs-compute choice, so Compute with
		// Load < Compute contradicts plan optimality (swap argument).
		runShared := func(who string, s *helix.Session) (*Violation, error) {
			pre, merr := readManifest(sharedDir)
			if merr != nil {
				return nil, merr
			}
			r, rerr := s.Run(ctx, wf)
			if rerr != nil {
				return viol("run-error", "shared session %s run failed: %v", who, rerr), nil
			}
			for name, want := range ref {
				if d := valueDiff(r.Values[name], want); d != "" {
					return viol("shared-equivalence", "output %s: shared session %s vs reference: %s (plan %v)",
						name, who, d, r.Plan.Cache), nil
				}
			}
			for _, np := range r.Plan.Nodes {
				if !np.Live || np.State != helix.StateCompute || !np.Node.Deterministic {
					continue
				}
				if _, ok := pre[np.Node.ChainSignature()]; !ok {
					continue
				}
				if np.Costs.Load < np.Costs.Compute {
					return viol("shared-recompute",
						"shared session %s recomputed %s (compute %.6gs) though its artifact is published and cheaper to load (%.6gs)",
						who, np.Node.Name, np.Costs.Compute, np.Costs.Load), nil
				}
			}
			return nil, nil
		}
		if v, serr := runShared("a", sharedA); v != nil || serr != nil {
			return v, serr
		}
		if v, serr := runShared("b", sharedB); v != nil || serr != nil {
			return v, serr
		}

		// Invariant 4: plan-cache soundness — whatever the cache outcome,
		// the executed plan's decisions equal a fresh solve's.
		if len(loadFailed) == 0 {
			if len(res.Plan.Nodes) != len(oracle.Nodes) {
				return viol("plan-cache-soundness", "%d planned nodes vs oracle's %d", len(res.Plan.Nodes), len(oracle.Nodes)), nil
			}
			for _, np := range res.Plan.Nodes {
				o := oracle.ByName(np.Node.Name)
				if o == nil {
					return viol("plan-cache-soundness", "node %s absent from oracle plan", np.Node.Name), nil
				}
				if np.State != o.State || np.Live != o.Live || np.Original != o.Original ||
					np.Output != o.Output || np.MandatoryMat != o.MandatoryMat {
					return viol("plan-cache-soundness",
						"node %s under %v plan: executed {state:%v live:%v orig:%v out:%v mandatory:%v} vs fresh solve {state:%v live:%v orig:%v out:%v mandatory:%v}",
						np.Node.Name, res.Plan.Cache,
						np.State, np.Live, np.Original, np.Output, np.MandatoryMat,
						o.State, o.Live, o.Original, o.Output, o.MandatoryMat), nil
				}
			}
		}

		// Invariant 5: storage-budget compliance (PolicyOpt only; blind
		// policies ignore the budget by design). The store admits every
		// optional write against the budget with the bytes already
		// stored, outputs included, so what it holds besides the
		// mandatory outputs — which are written past the budget — fits
		// the budget.
		if c.Config.Policy == "opt" {
			manifest, err := readManifest(subjectStoreDir)
			if err != nil {
				return nil, err
			}
			for key := range prevManifest {
				if _, still := manifest[key]; !still {
					if stats != nil {
						stats.Evictions++
					}
					delete(mandatorySigs, key)
				}
			}
			for _, np := range res.Plan.Nodes {
				if np.MandatoryMat {
					mandatorySigs[np.Node.ChainSignature()] = true
				}
			}
			var used, mandatory int64
			for key, size := range manifest {
				used += size
				if mandatorySigs[key] {
					mandatory += size
				}
			}
			budget := c.Config.BudgetBytes
			if budget <= 0 {
				budget = helix.DefaultStorageBudget
			}
			if used-mandatory > budget {
				return viol("storage-budget",
					"store holds %d B (%d B mandatory) against budget %d B",
					used, mandatory, budget), nil
			}
			prevManifest = manifest
		}
	}
	return nil, nil
}

// damage applies d to one artifact of the store in dir, chosen by d.Pick
// among the artifacts there, and returns its key; "" when the store holds
// none.
func damage(dir string, d Damage) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(paths) == 0 {
		return "", err
	}
	sort.Strings(paths)
	rng := rand.New(rand.NewSource(d.Pick))
	path := paths[rng.Intn(len(paths))]
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	switch d.Op {
	case "flip":
		data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
		err = os.WriteFile(path, data, 0o644)
	case "truncate":
		err = os.WriteFile(path, data[:rng.Intn(len(data))], 0o644)
	case "delete":
		err = os.Remove(path)
	default:
		return "", fmt.Errorf("fuzz: unknown damage %q", d.Op)
	}
	return strings.TrimSuffix(filepath.Base(path), ".gob"), err
}

// indexSet lowers an iteration-index list to a membership set;
// out-of-range entries are inert by construction.
func indexSet(ints []int) map[int]bool {
	m := make(map[int]bool, len(ints))
	for _, i := range ints {
		m[i] = true
	}
	return m
}

// valueDiff compares two output values by their gob encoding (the same
// bytes a materialization would store); empty string means equal.
func valueDiff(got, want any) string {
	gb, gerr := store.Encode(got)
	wb, werr := store.Encode(want)
	if gerr != nil || werr != nil {
		return fmt.Sprintf("encode error (got: %v, want: %v)", gerr, werr)
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Sprintf("%d-byte value != %d-byte expectation (got %.6v want %.6v)", len(gb), len(wb), got, want)
	}
	return ""
}

// readManifest snapshots the store's on-disk manifest (base plus
// journal) as chain-signature → size. After Session.Run returns, the
// write-behind barrier has journaled every entry change, so this is the
// authoritative post-iteration usage — without reaching into the live
// session's store.
func readManifest(dir string) (map[string]int64, error) {
	entries, err := store.ReadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("fuzz: read %s manifest: %w", dir, err)
	}
	m := make(map[string]int64, len(entries))
	for _, e := range entries {
		m[e.Key] = e.Size
	}
	return m, nil
}

// Options configures a fuzz run.
type Options struct {
	// Seed seeds the case-seed stream; each case derives its own seed,
	// which is what a failure report prints.
	Seed int64
	// Cases is the number of generated cases to run (default 100).
	Cases int
	// Corpus, when non-empty, receives the minimized failing case as
	// JSON for the regression corpus.
	Corpus string
	// ShrinkBudget bounds the number of candidate executions the
	// shrinker may spend (default 150).
	ShrinkBudget int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Stats, when non-nil, accumulates coverage counters.
	Stats *Stats
}

// Failure describes the first failing case of a run: the generating
// seed, the violation, the original and minimized cases, and where the
// corpus entry landed.
type Failure struct {
	CaseSeed   int64
	Violation  *Violation
	Case       *Case
	Minimized  *Case
	CorpusFile string
}

func (f *Failure) String() string {
	return fmt.Sprintf("case seed %d: %s (minimized to %d nodes+edits; reproduce with: go run ./cmd/helixfuzz -case-seed %d)",
		f.CaseSeed, f.Violation, f.Minimized.size(), f.CaseSeed)
}

// Run generates and executes o.Cases random cases. It stops at the
// first invariant violation, shrinks the case to a local minimum,
// writes it to the corpus, and returns the Failure; a clean sweep
// returns (nil, nil). err is reserved for harness infrastructure
// problems.
func Run(ctx context.Context, o Options) (*Failure, error) {
	if o.Cases <= 0 {
		o.Cases = 100
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 150
	}
	logf := o.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < o.Cases; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		caseSeed := rng.Int63()
		c := Generate(caseSeed)
		v, err := runInTemp(ctx, c, o.Stats)
		if err != nil {
			return nil, fmt.Errorf("fuzz: case %d (seed %d): %w", i, caseSeed, err)
		}
		if v == nil {
			if (i+1)%50 == 0 {
				logf("fuzz: %d/%d cases clean", i+1, o.Cases)
			}
			continue
		}
		logf("fuzz: case %d (seed %d) FAILED: %s", i, caseSeed, v)
		min, minV := Shrink(ctx, c, v, o.ShrinkBudget)
		logf("fuzz: minimized %d → %d nodes+edits", c.size(), min.size())
		f := &Failure{CaseSeed: caseSeed, Violation: minV, Case: c, Minimized: min}
		if o.Corpus != "" {
			path, werr := WriteCorpus(o.Corpus, min, minV)
			if werr != nil {
				return f, werr
			}
			f.CorpusFile = path
		}
		return f, nil
	}
	return nil, nil
}

// runInTemp runs one case in a throwaway directory.
func runInTemp(ctx context.Context, c *Case, stats *Stats) (*Violation, error) {
	dir, err := os.MkdirTemp("", "helixfuzz-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return RunCase(ctx, dir, c, stats)
}

// corpusEntry is the JSON schema of a corpus file. Violation records
// what the case caught when it was written (nil for seed entries that
// document known-good behavior).
type corpusEntry struct {
	Violation *Violation `json:"violation"`
	Case      *Case      `json:"case"`
}

// WriteCorpus writes the (minimized) case into dir as a regression
// corpus entry and returns the file path.
func WriteCorpus(dir string, c *Case, v *Violation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(corpusEntry{Violation: v, Case: c}, "", "  ")
	if err != nil {
		return "", err
	}
	tag := "seed"
	if v != nil {
		tag = v.Invariant
	}
	name := fmt.Sprintf("case-%d-%s.json", c.Seed, tag)
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Replay loads a corpus file and re-runs its case, returning whatever
// violation it produces now (nil = the invariants hold again).
func Replay(ctx context.Context, path string) (*Violation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e corpusEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("fuzz: parse corpus file %s: %w", path, err)
	}
	if e.Case == nil {
		return nil, fmt.Errorf("fuzz: corpus file %s has no case", path)
	}
	return runInTemp(ctx, e.Case, nil)
}
