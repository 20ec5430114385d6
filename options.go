package helix

import (
	"fmt"
)

// Option configures a Session. Options apply at two scopes:
//
//   - Session scope: pass to Open. The resulting configuration is the
//     session's baseline for every subsequent iteration.
//   - Run scope: pass to Session.Run or Session.Plan. The option
//     overrides the baseline for that one call only — the next call
//     without options is back on the baseline.
//
// Run-scoped overrides are safe with the plan cache: every knob that can
// change planning or execution decisions is folded into the plan
// fingerprint's configuration token, so a plan built under one
// configuration is never reused under another, and reverting an override
// restores full-fingerprint hits against the earlier configuration's
// cached plan.
//
// A few options configure the store or the plan cache itself, which
// exist once per session; those are marked session-scoped in their
// documentation, and passing one to Run or Plan returns an error
// satisfying errors.Is(err, ErrSessionOption).
type Option struct {
	name        string
	sessionOnly bool
	apply       func(*config)
}

// config is a Session's resolved configuration: the legacy Options knob
// set plus the option-only additions. A Session keeps its baseline
// config; Run/Plan copy it and apply run-scoped overrides.
//
// helixlint (fingerprintfields) checks every field against configToken,
// the plan-cache conditioning token: a new field must either feed the
// token or carry an //lint:fpexempt reason saying why plan reuse is
// safe without it.
//
//lint:fingerprint configToken
type config struct {
	o Options
	//lint:fpexempt I/O pool sizing, not plan identity (mirrors exec.Options.IOWorkers)
	ioWorkers int
	//lint:fpexempt observer wiring never affects plan identity
	observer RunObserver
	// shared attaches the session to a cross-session content-addressed
	// store + plan cache (WithSharedStore); nil opens a private store.
	//lint:fpexempt store attachment, not plan identity; the store's materialized view enters the fingerprint as per-node chain signatures
	shared *SharedStore
	// tenant labels published artifacts for shared-store byte accounting
	// (WithTenant). Deliberately not part of configToken: tenants under
	// identical configurations share plans — only byte accounting is
	// namespaced.
	//lint:fpexempt byte-accounting label on published artifacts; content addressing already keys identity
	tenant string
	// adaptive arms mid-run adaptive re-planning with the given divergence
	// threshold (WithAdaptive); 0 disables.
	adaptive float64
	// adaptiveSolves bounds the extra max-flow solves adaptive re-planning
	// may spend per run; ≤0 uses the engine default.
	adaptiveSolves int
	// runScope records which scope the options are being applied at, for
	// options whose scope depends on their arguments (WithWorkerClass).
	//lint:fpexempt transient apply-time state, discarded before planning
	runScope bool
	// err records the first invalid option value; checked after apply.
	//lint:fpexempt transient apply-time state, discarded before planning
	err error
}

// apply folds opts into the config. runScope rejects session-only
// options; any invalid option value surfaces as the returned error.
func (c *config) apply(opts []Option, runScope bool) error {
	c.runScope = runScope
	for _, op := range opts {
		if op.apply == nil {
			continue
		}
		if runScope && op.sessionOnly {
			return tagged(ErrSessionOption, fmt.Errorf("helix: %s is session-scoped, pass it to Open", op.name))
		}
		op.apply(c)
	}
	return c.err
}

// budget resolves the effective storage budget (the paper's 10 GB
// default, §6.3).
func (c *config) budget() int64 {
	if c.o.StorageBudget > 0 {
		return c.o.StorageBudget
	}
	return DefaultStorageBudget
}

// policyKey identifies the materialization-policy configuration. The
// session memoizes one policy instance per key, so a run-scoped override
// that reverts to an earlier configuration resumes that configuration's
// policy state (e.g. OMP's consumed budget) instead of resetting it.
func (c *config) policyKey() string {
	return fmt.Sprintf("policy=%d budget=%d threshold=%g domain=%q",
		c.o.Policy, c.budget(), c.o.OMPThreshold, c.o.Domain)
}

// configToken is the plan-cache conditioning token: every engine-level
// setting plan reuse must be conditioned on. Two runs whose tokens
// differ fingerprint differently and can never reuse each other's plans.
// (Planner-level knobs — reuse, pruning, output materialization — are
// fingerprinted separately as plan.Options.)
func (c *config) configToken() string {
	return fmt.Sprintf("policy=%d budget=%d threshold=%g domain=%q parallelism=%d adaptive=%g/%d",
		c.o.Policy, c.budget(), c.o.OMPThreshold, c.o.Domain, c.o.Parallelism,
		c.adaptive, c.adaptiveSolves)
}

// WorkerClass names one of the execution scheduler's worker pools, for
// WithWorkerClass.
type WorkerClass string

const (
	// WorkerCompute is the compute pool: at most this many operators
	// compute concurrently (the Options.Parallelism knob).
	WorkerCompute WorkerClass = "compute"
	// WorkerIO is the I/O pool draining Load-state nodes; loads are
	// disk/throttle-bound, so the pool is sized independently of compute
	// (default max(compute parallelism, 4), capped by the plan's load
	// count).
	WorkerIO WorkerClass = "io"
	// WorkerMat is the store's background writer pool flushing
	// write-behind materializations (≤0 restores the store default).
	// Session-scoped — the pool belongs to the store — so this class is
	// only accepted by Open; WithWorkerClass(WorkerMat, n) is equivalent
	// to WithMatWriters(n).
	WorkerMat WorkerClass = "mat"
)

// WithPolicy selects the materialization strategy (the paper's system
// variants, §6.1). Run-scoped overrides A/B policies within one session;
// each distinct policy configuration keeps its own policy instance, so
// budget accounting survives switching away and back.
func WithPolicy(p Policy) Option {
	return Option{name: "WithPolicy", apply: func(c *config) { c.o.Policy = p }}
}

// WithStorageBudget caps materialized bytes for the budgeted policies;
// ≤0 restores the paper's 10 GB default (§6.3).
func WithStorageBudget(bytes int64) Option {
	return Option{name: "WithStorageBudget", apply: func(c *config) { c.o.StorageBudget = bytes }}
}

// WithOMPThreshold overrides Algorithm 2's load-cost multiplier; 0
// restores the paper's value of 2.
func WithOMPThreshold(t float64) Option {
	return Option{name: "WithOMPThreshold", apply: func(c *config) { c.o.OMPThreshold = t }}
}

// WithDomain selects the change-probability distribution for
// PolicyOptAmortized ("census", "nlp", "genomics", "mnist").
func WithDomain(domain string) Option {
	return Option{name: "WithDomain", apply: func(c *config) { c.o.Domain = domain }}
}

// WithReuse toggles cross-iteration reuse of materialized results;
// disabling models the KeystoneML/DeepDive baselines, which never reuse
// automatically. Default on.
func WithReuse(enabled bool) Option {
	return Option{name: "WithReuse", apply: func(c *config) { c.o.DisableReuse = !enabled }}
}

// WithPruning toggles program slicing (§5.4); disabling is the ablation
// baseline. Default on.
func WithPruning(enabled bool) Option {
	return Option{name: "WithPruning", apply: func(c *config) { c.o.DisablePruning = !enabled }}
}

// WithMemorySampling toggles heap sampling for Figure 10; costs a
// background goroutine while a run is in flight. Default off.
func WithMemorySampling(enabled bool) Option {
	return Option{name: "WithMemorySampling", apply: func(c *config) { c.o.SampleMemory = enabled }}
}

// WithDPRSlowdown multiplies DPR operator cost (models DeepDive's
// Python/shell preprocessing, §6.5.2). 0 or 1 disables. A fused run
// (WithStreaming) charges each member its even share of the run's
// measured time multiplied by its own component's factor.
func WithDPRSlowdown(factor float64) Option {
	return Option{name: "WithDPRSlowdown", apply: func(c *config) { c.o.DPRSlowdown = factor }}
}

// WithLISlowdown multiplies L/I operator cost (models KeystoneML's
// training-data caching miss, §6.5.2). 0 or 1 disables. A fused run
// charges each member its even share times its own component's factor,
// as under WithDPRSlowdown.
func WithLISlowdown(factor float64) Option {
	return Option{name: "WithLISlowdown", apply: func(c *config) { c.o.LISlowdown = factor }}
}

// WithStreaming toggles fused streaming execution of row-wise operators
// (MapRows, FilterRows, FlatMapRows): when on (the default), the planner
// fuses linear chains of them into single scheduled units with
// per-element pull, so interior collections are never built. Disabling
// falls back to per-operator batch execution — byte-identical results
// (asserted by the fuzz harness), one collection and one barrier per
// operator. Run-scoped overrides are plan-cache safe: the streaming bit
// is part of the plan fingerprint.
func WithStreaming(enabled bool) Option {
	return Option{name: "WithStreaming", apply: func(c *config) { c.o.DisableStreaming = !enabled }}
}

// WithCodec selects the store's serialization format: CodecBinary (the
// default columnar binary codec) or CodecGob (legacy encoding/gob).
// Readers sniff the format per artifact, so a store written under one
// codec stays loadable under the other. Session-scoped: the codec
// belongs to the store.
func WithCodec(c Codec) Option {
	return Option{name: "WithCodec", sessionOnly: true,
		apply: func(cfg *config) { cfg.o.Codec = c }}
}

// WithSyncMaterialization, when enabled, serializes and writes
// materializations inline on the worker goroutine that computed them —
// the paper-faithful accounting — instead of the default write-behind
// pipeline.
func WithSyncMaterialization(enabled bool) Option {
	return Option{name: "WithSyncMaterialization", apply: func(c *config) { c.o.SyncMaterialization = enabled }}
}

// WithParallelism bounds the compute worker pool: at most n operators
// compute concurrently regardless of DAG width; ≤0 uses
// runtime.GOMAXPROCS(0). Equivalent to WithWorkerClass(WorkerCompute, n).
func WithParallelism(n int) Option {
	return Option{name: "WithParallelism", apply: func(c *config) { c.o.Parallelism = n }}
}

// WithWorkerClass sizes one of the session's worker pools:
// WorkerCompute bounds concurrent operator computation, WorkerIO sizes
// the Load-state pool (≤0 restores its max(parallelism, 4) heuristic),
// and WorkerMat sizes the store's write-behind materialization pool.
// WorkerMat is session-scoped (the pool belongs to the store); passing
// it to Run or Plan returns an error satisfying
// errors.Is(err, ErrSessionOption). Unknown classes are rejected when
// the options are applied.
func WithWorkerClass(class WorkerClass, size int) Option {
	return Option{name: "WithWorkerClass", apply: func(c *config) {
		switch class {
		case WorkerCompute:
			c.o.Parallelism = size
		case WorkerIO:
			c.ioWorkers = size
		case WorkerMat:
			if c.runScope {
				if c.err == nil {
					c.err = tagged(ErrSessionOption, fmt.Errorf("helix: WithWorkerClass(WorkerMat, …) is session-scoped, pass it to Open"))
				}
				return
			}
			c.o.MatWriters = size
		default:
			if c.err == nil {
				c.err = fmt.Errorf("helix: unknown worker class %q (want %q, %q or %q)", class, WorkerCompute, WorkerIO, WorkerMat)
			}
		}
	}}
}

// WithScheduler selects the ready-queue ordering: SchedCriticalPath
// (default) starts the node with the longest projected downstream chain
// first; SchedFIFO forces pure arrival order.
func WithScheduler(mode SchedMode) Option {
	return Option{name: "WithScheduler", apply: func(c *config) { c.o.CriticalPath = mode }}
}

// WithAdaptive arms mid-run adaptive re-planning with the given
// divergence threshold; threshold ≤ 0 disables it (the default).
//
// While a run executes, the engine compares each completed node's
// measured own time against the plan's projection and accumulates both.
// When the relative divergence |measured − projected| / projected over
// completed nodes exceeds threshold (0.5 means "the finished portion of
// the run cost 50% more or less than planned"), the engine corrects the
// cost estimates of not-yet-started operators from what it has observed
// so far and re-plans the remainder of the run in place: already-running
// and finished nodes are untouched; pending Compute nodes whose loads
// became the cheaper choice are swapped to loads. Each re-plan is
// reported as a ReplanEvent (see WithObserver), and the run's
// RunStatsEvent totals solves, re-plans, and swaps.
//
// Re-planning is plan-cache safe. Corrections only touch operators that
// have not started, so completed work never changes the fingerprint
// retroactively; the recomputed fingerprint differs from the initial
// plan's only on components whose cost estimates actually moved, and the
// cache's partial path re-solves just those components, reusing the rest
// row-for-row. A re-plan whose corrections all fall inside the gating
// bands writes nothing, fingerprints identically, and costs zero solves.
// The threshold (and solve bound) are folded into the configuration
// token, so adaptive and non-adaptive runs never share cache entries.
//
// Extra max-flow solves per run are bounded (default 3) to keep
// speculation cheap; once the bound is spent the monitor disarms for the
// rest of the run. Usable at session scope (every run adapts) or run
// scope (that run only). See BENCH_adaptive.json (README) for the
// measured static-vs-adaptive comparison.
func WithAdaptive(threshold float64) Option {
	return Option{name: "WithAdaptive", apply: func(c *config) {
		if threshold < 0 {
			threshold = 0
		}
		c.adaptive = threshold
	}}
}

// WithObserver installs a RunObserver receiving the run's structured
// events. At session scope every Run reports to it; a run-scoped
// WithObserver replaces it for that call (WithObserver(nil) silences one
// run).
func WithObserver(obs RunObserver) Option {
	return Option{name: "WithObserver", apply: func(c *config) { c.observer = obs }}
}

// WithDiskThroughput simulates a disk with the given byte/s throughput
// for loads and writes; 0 uses real disk speed. The paper's environment
// is 170 MB/s (§6.3). Session-scoped: the store is configured once.
func WithDiskThroughput(bytesPerSec float64) Option {
	return Option{name: "WithDiskThroughput", sessionOnly: true,
		apply: func(c *config) { c.o.DiskBytesPerSec = bytesPerSec }}
}

// WithMatWriters sizes the store's background writer pool for
// write-behind materialization; ≤0 uses the store default.
// Session-scoped: the pool belongs to the store. Equivalent to
// WithWorkerClass(WorkerMat, n).
func WithMatWriters(n int) Option {
	return Option{name: "WithMatWriters", sessionOnly: true,
		apply: func(c *config) { c.o.MatWriters = n }}
}

// WithPlanCache toggles the iteration-over-iteration plan cache.
// Session-scoped: the cache holds cross-iteration state.
func WithPlanCache(mode PlanCacheMode) Option {
	return Option{name: "WithPlanCache", sessionOnly: true,
		apply: func(c *config) { c.o.PlanCache = mode }}
}

// WithOptions applies a legacy Options struct wholesale — the bridge the
// deprecated NewSession shim is built on, and a one-line migration step
// for existing call sites. Later options override its fields.
// Session-scoped because the struct carries store-level settings.
func WithOptions(o Options) Option {
	return Option{name: "WithOptions", sessionOnly: true,
		apply: func(c *config) { c.o = o }}
}
