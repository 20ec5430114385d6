package helix

import (
	"sort"
	"time"

	"helix/internal/core"
)

// IterationRecord summarizes one executed iteration for introspection —
// a first step toward the paper's future-work goal of "introspection and
// querying across workflow versions over time" (§8).
type IterationRecord struct {
	// Iteration is the 0-based iteration index.
	Iteration int
	// WorkflowName is the declared workflow name.
	WorkflowName string
	// Started is the wall-clock start of the run.
	Started time.Time
	// Wall is the iteration's duration.
	Wall time.Duration
	// States counts live operators per execution state.
	States map[State]int
	// Changed lists operators that were original this iteration (had no
	// equivalent in the previous one) — the user-visible "what did my
	// edit invalidate" answer.
	Changed []string
	// MatTime is the materialization overhead.
	MatTime time.Duration
	// StorageBytes is store usage after the iteration.
	StorageBytes int64
}

// History returns the session's per-iteration records, oldest first. The
// slice is owned by the caller. History is persisted with the session
// state, so a session reopened on the same directory sees the records of
// iterations run before the restart.
func (s *Session) History() []IterationRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IterationRecord, len(s.history))
	copy(out, s.history)
	return out
}

// recordHistory appends an iteration record derived from a run result.
// The caller holds s.mu.
func (s *Session) recordHistory(wf *Workflow, res *Result, started time.Time, changed []string) {
	rec := IterationRecord{
		Iteration:    res.Iteration,
		WorkflowName: wf.Name(),
		Started:      started,
		Wall:         res.Wall,
		States:       make(map[State]int, 3),
		Changed:      changed,
		MatTime:      res.MatTime,
		StorageBytes: res.StorageBytes,
	}
	for st, n := range res.StateCounts {
		rec.States[st] = n
	}
	s.history = append(s.history, rec)
}

// changedOperators lists the nodes the run's change tracking marked
// original (Node.Original: no equivalent in the previous iteration's DAG),
// sorted by name.
func changedOperators(d *core.DAG) []string {
	var out []string
	for _, n := range d.Nodes() {
		if n.Original() {
			out = append(out, n.Name)
		}
	}
	sort.Strings(out)
	return out
}
