// Package helix is a Go reproduction of HELIX (Xin et al., PVLDB 12(4),
// 2018): a declarative machine-learning workflow system that optimizes
// execution across iterations — intelligently reusing materialized
// intermediate results, or recomputing them, as appropriate.
//
// A workflow is declared once through the Workflow builder (the Go
// analogue of the paper's HML DSL, §3): data sources, scanners,
// extractors, synthesizers, learners and reducers, wired by input/output
// relationships into a DAG. A Session then executes the workflow; on
// every subsequent run it compares the new DAG against the previous
// iteration's (operator-level change tracking, §4.2), computes the
// optimal mix of loading, computing and pruning per node by reduction to
// MAX-FLOW (OPT-EXEC-PLAN, §5.2), and while running decides which fresh
// intermediates to materialize for the benefit of future iterations
// (OPT-MAT-PLAN streaming heuristic, §5.3).
//
// Basic use:
//
//	wf := helix.New("census")
//	rows := wf.Scanner("rows", "csv", parse, wf.Source("data", "v1", read))
//	ext := wf.Extractor("age", "col=age", extractAge, rows)
//	income := wf.Synthesizer("income", "label=target", assemble, ext)
//	pred := wf.Learner("incPred", "LR reg=0.1", train, income)
//	acc := wf.Reducer("checked", "accuracy", evaluate, pred)
//	acc.IsOutput()
//
//	sess, _ := helix.Open(dir)
//	res, _ := sess.Run(ctx, wf)     // iteration 0: full run
//	// ... modify the workflow declaration ...
//	res, _ = sess.Run(ctx, wf2)     // iteration 1: reuses unchanged work
//
// Open accepts functional options (WithPolicy, WithParallelism,
// WithObserver, …) that set the session baseline; Run and Plan accept
// the same options as run-scoped overrides for one call, and failures
// are classified by the package's typed errors (ErrBadWorkflow,
// NodeError, …).
//
// helixlint (errtaxonomy) holds the package to that contract: every
// error return is a taxonomy sentinel, wraps one (tagged / %w), or
// carries a typed *NodeError — never an anonymous fmt.Errorf.
//
//lint:errtaxonomy
package helix

import (
	"helix/internal/core"
	"helix/internal/plan"
	"helix/internal/store"
)

// Plan is an explainable execution plan for one iteration: the states
// OPT-EXEC-PLAN assigned, the costs and constraints each decision rested
// on, a per-decision rationale, and the projected run time T(W,s) of
// Equation 1. Obtain one with Session.Plan (planning only) or from
// Result.Plan (the plan a Run executed); render it with Plan.Explain or
// Workflow.PlanDOT.
type Plan = plan.Plan

// PlanCacheOutcome reports how a plan was obtained: a cold solve or a
// wholesale cache hit. See Plan.Cache.
type PlanCacheOutcome = plan.CacheOutcome

// Plan cache outcomes. PlanCachePartial is never produced: it stays
// declared only because the repository benchmark names it, and goes when
// the benchmark stops naming it (ROADMAP item 8).
const (
	PlanCacheCold    = plan.CacheCold
	PlanCachePartial = plan.CachePartial
	PlanCacheHit     = plan.CacheHit
)

// Value is the unit of data flowing between operators: a data collection,
// an ML model, or a scalar (paper §3.2: "A HELIX operator takes one or
// more DCs and outputs DCs, ML models, or scalars").
type Value = any

// State is the execution state the optimizer assigns to an operator in a
// given iteration (paper §5.1).
type State = core.State

// The three operator states of the paper: computed from inputs, loaded
// from a previous iteration's materialization, or pruned entirely.
const (
	StateCompute = core.StateCompute
	StateLoad    = core.StateLoad
	StatePrune   = core.StatePrune
)

// The paper's three workflow components (§2): data preprocessing,
// learning/inference, postprocessing.
const (
	DPR = core.DPR
	LI  = core.LI
	PPR = core.PPR
)

// RegisterType registers a concrete Go type for materialization with
// every store codec. Operator outputs that should be materialized and
// reloaded across program restarts must have their types registered.
// Types with no native or extension encoding in the binary codec travel
// through its gob escape hatch, which is what the registration feeds.
func RegisterType(v any) { store.RegisterValueType(v) }
