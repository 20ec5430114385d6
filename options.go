package helix

import (
	"fmt"
	"math"

	"helix/internal/exec"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
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
// fingerprint, so a plan built under one configuration is never reused
// under another, and reverting an override restores full-fingerprint
// hits against the earlier configuration's cached plan.
//
// A few options configure the store, which exists once per session;
// those are marked session-scoped in their documentation, and passing
// one to Run or Plan returns an error satisfying
// errors.Is(err, ErrSessionOption).
//
// Every knob is declared once: a With… function writes one field of
// config, and that field is what the engine, the planner or the store
// reads. Adding a knob is one field and one With….
type Option struct {
	name        string
	sessionOnly bool
	apply       func(*config)
	// err marks an option whose arguments were invalid when it was
	// built; applying it fails with this (ErrBadConfig-tagged) error.
	err error
}

// policyConfig selects and parameterizes the materialization policy.
// It is comparable and keys Session.policies directly: a run-scoped
// override that reverts to an earlier configuration resumes that
// configuration's policy instance (e.g. OMP's consumed budget) instead
// of resetting it.
type policyConfig struct {
	Policy    Policy
	Budget    int64 // resolved: never ≤ 0
	Threshold float64
	Domain    string
}

// storeConfig holds the settings that belong to the store rather than
// to a run. Comparable: a shared store pins the first attaching
// session's value and refuses a later session whose value differs
// (ErrSharedConfig).
type storeConfig struct {
	DiskBytesPerSec float64
}

func (sc storeConfig) applyTo(st *store.Store) {
	st.DiskBytesPerSec = sc.DiskBytesPerSec
}

// config is a Session's resolved configuration. A Session keeps its
// baseline; Run/Plan copy it and apply run-scoped overrides.
type config struct {
	policy policyConfig
	store  storeConfig
	// exec is what the engine runs under. The With… functions write its
	// fields directly — the planner's knobs sit in exec.Plan, which the
	// engine hands to the planner untouched — and execOptions fills in
	// the two derived ones, Policy and ConfigToken.
	exec exec.Options
	// shared attaches the session to a cross-session content-addressed
	// store + plan cache (WithSharedStore); nil opens a private store.
	shared *SharedStore
}

// defaultConfig is the configuration Open starts from: HELIX OPT under
// the paper's storage budget, outputs materialized, streaming on.
func defaultConfig() config {
	return config{
		policy: policyConfig{Budget: DefaultStorageBudget},
		exec:   exec.Options{Plan: plan.Options{MaterializeOutputs: true, Streaming: true}},
	}
}

// apply folds opts into the config. runScope rejects session-only
// options; an option built from invalid arguments fails here.
func (c *config) apply(opts []Option, runScope bool) error {
	for _, op := range opts {
		switch {
		case op.err != nil:
			return op.err
		case runScope && op.sessionOnly:
			return tagged(ErrSessionOption, fmt.Errorf("helix: %s is session-scoped, pass it to Open", op.name))
		case op.apply != nil:
			op.apply(c)
		}
	}
	return nil
}

// identity is every setting outside plan.Options that plan reuse is
// conditioned on: the policy configuration (it decides what the next
// iteration finds in the store), the compute width and the adaptive
// threshold. The planner's own knobs are fingerprinted separately, field
// by field, as plan.Options.
type identity struct {
	policyConfig
	Parallelism int
	Adaptive    float64
}

func (c *config) identity() identity {
	return identity{c.policy, c.exec.Parallelism, c.exec.AdaptiveThreshold}
}

// configToken renders an identity as the plan-cache conditioning token.
// Two runs whose tokens differ fingerprint differently and can never
// reuse each other's plans; %+v names every field, so a field added to
// identity is in the token by construction.
func configToken(id identity) string { return fmt.Sprintf("%+v", id) }

// execOptions completes the engine options one Plan/Run call executes
// under: the memoized policy instance and the identity token.
func (c *config) execOptions(pol opt.MatPolicy) exec.Options {
	eo := c.exec
	eo.Policy = pol
	eo.ConfigToken = configToken(c.identity())
	return eo
}

// WithPolicy selects the materialization strategy (the paper's system
// variants, §6.1). Run-scoped overrides A/B policies within one session;
// each distinct policy configuration keeps its own policy instance, so
// budget accounting survives switching away and back. PolicyNever also
// drops the mandatory materialization of outputs.
func WithPolicy(p Policy) Option {
	return Option{name: "WithPolicy", apply: func(c *config) {
		c.policy.Policy = p
		c.exec.Plan.MaterializeOutputs = p != PolicyNever
	}}
}

// WithStorageBudget caps materialized bytes for the budgeted policies;
// ≤0 restores the paper's 10 GB default (§6.3).
func WithStorageBudget(bytes int64) Option {
	if bytes <= 0 {
		bytes = DefaultStorageBudget
	}
	return Option{name: "WithStorageBudget", apply: func(c *config) { c.policy.Budget = bytes }}
}

// WithOMPThreshold overrides Algorithm 2's load-cost multiplier; 0
// restores the paper's value of 2. A negative or non-finite t fails the
// call it is passed to with ErrBadConfig.
func WithOMPThreshold(t float64) Option {
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return badOption("WithOMPThreshold", fmt.Errorf("helix: OMP threshold %v is not a finite number ≥ 0", t))
	}
	return Option{name: "WithOMPThreshold", apply: func(c *config) { c.policy.Threshold = t }}
}

// WithDomain selects the change-probability distribution for
// PolicyOptAmortized ("census", "nlp", "genomics", "mnist" and their
// aliases; "" is the uniform default). An unknown domain fails the call
// it is passed to with ErrBadConfig.
func WithDomain(domain string) Option {
	if _, ok := opt.SurveyChangeModel(domain); !ok {
		return badOption("WithDomain", fmt.Errorf("helix: unknown domain %q", domain))
	}
	return Option{name: "WithDomain", apply: func(c *config) { c.policy.Domain = domain }}
}

// badOption is an option built from invalid arguments: applying it fails
// with err, tagged ErrBadConfig.
func badOption(name string, err error) Option {
	return Option{name: name, err: tagged(ErrBadConfig, err)}
}

// WithReuse toggles cross-iteration reuse of materialized results;
// disabling models the KeystoneML/DeepDive baselines, which never reuse
// automatically. Default on.
func WithReuse(enabled bool) Option {
	return Option{name: "WithReuse", apply: func(c *config) { c.exec.Plan.DisableReuse = !enabled }}
}

// WithPruning toggles program slicing (§5.4); disabling is the ablation
// baseline. Default on.
func WithPruning(enabled bool) Option {
	return Option{name: "WithPruning", apply: func(c *config) { c.exec.Plan.DisablePruning = !enabled }}
}

// WithMemorySampling toggles heap sampling for Figure 10; costs a
// background goroutine while a run is in flight. Default off.
func WithMemorySampling(enabled bool) Option {
	return Option{name: "WithMemorySampling", apply: func(c *config) { c.exec.SampleMemory = enabled }}
}

// WithDPRSlowdown multiplies DPR operator cost (models DeepDive's
// Python/shell preprocessing, §6.5.2). 0 or 1 disables. A fused run
// (WithStreaming) charges each member its even share of the run's
// measured time multiplied by its own component's factor.
func WithDPRSlowdown(factor float64) Option {
	return Option{name: "WithDPRSlowdown", apply: func(c *config) { c.exec.DPRSlowdown = factor }}
}

// WithLISlowdown multiplies L/I operator cost (models KeystoneML's
// training-data caching miss, §6.5.2). 0 or 1 disables. A fused run
// charges each member its even share times its own component's factor,
// as under WithDPRSlowdown.
func WithLISlowdown(factor float64) Option {
	return Option{name: "WithLISlowdown", apply: func(c *config) { c.exec.LISlowdown = factor }}
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
	return Option{name: "WithStreaming", apply: func(c *config) { c.exec.Plan.Streaming = enabled }}
}

// WithSyncMaterialization, when enabled, serializes and writes
// materializations inline on the worker goroutine that computed them —
// the paper-faithful accounting — instead of the default write-behind
// pipeline.
func WithSyncMaterialization(enabled bool) Option {
	return Option{name: "WithSyncMaterialization", apply: func(c *config) { c.exec.SyncMaterialization = enabled }}
}

// WithParallelism bounds the compute worker pool: at most n operators
// compute concurrently regardless of DAG width; ≤0 uses
// runtime.GOMAXPROCS(0). It is the one pool size a session sets: the
// load pool is max(n, 4) capped by the plan's load count, and the store's
// write-behind pool has store.DefaultWriters writers.
func WithParallelism(n int) Option {
	return Option{name: "WithParallelism", apply: func(c *config) { c.exec.Parallelism = n }}
}

// WithAdaptive arms mid-run adaptive re-planning with the given
// divergence threshold; threshold ≤ 0 disables it (the default), and a
// NaN threshold fails the call it is passed to with ErrBadConfig.
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
// retroactively. A re-plan whose corrections moved an estimate changes
// the fingerprint and solves cold, once; one whose corrections all fall
// inside the gating bands writes nothing and costs zero solves.
// The threshold is folded into the configuration token, so adaptive and
// non-adaptive runs never share cache entries.
//
// Extra max-flow solves per run are bounded (3) to keep speculation
// cheap; once the bound is spent the monitor disarms for the rest of the
// run. Usable at session scope (every run adapts) or run scope (that run
// only). internal/sim's TestRunAdaptiveBeatsStaticOnSkew holds the
// static-vs-adaptive comparison on model time (README, "Adaptive mid-run
// re-planning").
func WithAdaptive(threshold float64) Option {
	if math.IsNaN(threshold) {
		return badOption("WithAdaptive", fmt.Errorf("helix: adaptive threshold is NaN"))
	}
	if threshold < 0 {
		threshold = 0
	}
	return Option{name: "WithAdaptive", apply: func(c *config) { c.exec.AdaptiveThreshold = threshold }}
}

// WithObserver installs a RunObserver receiving the run's structured
// events. At session scope every Run reports to it; a run-scoped
// WithObserver replaces it for that call (WithObserver(nil) silences one
// run).
func WithObserver(obs RunObserver) Option {
	return Option{name: "WithObserver", apply: func(c *config) { c.exec.Observer = obs }}
}

// WithDiskThroughput simulates a disk with the given byte/s throughput
// for loads and writes; 0 uses real disk speed. The paper's environment
// is 170 MB/s (§6.3). Session-scoped: the store is configured once.
func WithDiskThroughput(bytesPerSec float64) Option {
	return Option{name: "WithDiskThroughput", sessionOnly: true,
		apply: func(c *config) { c.store.DiskBytesPerSec = bytesPerSec }}
}
