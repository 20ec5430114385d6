package helix

import "helix/internal/exec"

// RunObserver receives the structured events a running iteration emits.
// Install one with WithObserver — on the session (every Run reports to
// it) or on a single Run call (that run only). Events are delivered
// serially, but on whichever worker goroutine produced them: a slow
// observer slows the run, so hand heavy work to a channel. When no
// observer is installed, no events are constructed — instrumentation is
// free when off.
//
// An iteration's stream is, in order: one PlanEvent (how the plan was
// obtained and what it projects), then interleaved NodeEvents (a
// NodeStarted/NodeRetired pair per executing live node; solver-pruned
// live nodes retire immediately without starting) with zero or more
// ReplanEvents mixed in when WithAdaptive armed the divergence monitor,
// one FlushEvent (the write-behind barrier), and — on success only — one
// RunStatsEvent (planner health: cache outcome, solves, re-plans)
// followed by one DoneEvent. A failed run's stream simply ends; the
// error reaches the Run caller. A planned load that fails ends an
// attempt's stream the same way, and the next attempt's starts with its
// own PlanEvent.
type RunObserver = exec.Observer

// RunEvent is one structured occurrence within a running iteration.
// Concrete types: PlanEvent, NodeEvent, ReplanEvent, FlushEvent,
// RunStatsEvent, DoneEvent.
type RunEvent = exec.Event

// PlanEvent reports the plan an iteration is about to execute: the
// plan-cache outcome (cold/hit), the Equation-1 projection, time
// spent planning, and the live-node state mix. One per plan executed
// (a failed load makes a second), before any of its nodes starts.
type PlanEvent = exec.PlanEvent

// NodeEvent reports one operator's lifecycle transition (NodeStarted,
// then NodeRetired).
type NodeEvent = exec.NodeEvent

// ReplanEvent reports one mid-run re-planning attempt by the adaptive
// divergence monitor (WithAdaptive): measured times diverged past the
// threshold, frontier cost estimates were corrected from observation, and
// the planner reconsidered the not-yet-started remainder of the run with
// one cold solve that bypasses the plan cache.
type ReplanEvent = exec.ReplanEvent

// FlushEvent reports the write-behind flush barrier after the last node
// finished.
type FlushEvent = exec.FlushEvent

// RunStatsEvent summarizes the run's planner health — plan-cache outcome,
// total max-flow solves (initial plan plus adaptive re-plans), re-plan
// and swap counts. One per successful run, between flush and done.
type RunStatsEvent = exec.RunStatsEvent

// DoneEvent reports successful completion of the iteration.
type DoneEvent = exec.DoneEvent

// Node lifecycle phases.
const (
	// NodeStarted fires when a worker picks the node up.
	NodeStarted = exec.NodeStarted
	// NodeRetired fires when the node goes out of scope: its own time is
	// final and its materialization decision has been made.
	NodeRetired = exec.NodeRetired
)
