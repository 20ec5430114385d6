package sim

import (
	"context"
	"testing"

	"helix/internal/workloads"
)

// TestContinuousIngest pins the ingest acceptance criteria: over the
// default schedule the long-lived session plans cold on tick 0, on every
// delivery and on the first tick of each quiet stretch (9 ticks), serves
// the rest of each quiet stretch from a full fingerprint hit (6 ticks),
// and reuses clean work on every tick after the first.
func TestContinuousIngest(t *testing.T) {
	rep, err := RunIngest(context.Background(), IngestConfig{
		Window: 3,
		Scale:  workloads.Scale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdPlans != 9 || rep.FullHits != 6 {
		t.Errorf("plans: %d cold / %d full-hit, want 9 / 6 (quiet stretches reach a byte-stable fingerprint on their second tick)", rep.ColdPlans, rep.FullHits)
	}
	if rep.TotalSavedSeconds <= 0 {
		t.Errorf("TotalSavedSeconds = %f, want > 0", rep.TotalSavedSeconds)
	}
	// Savings must come from real per-tick reuse, not one lucky tick: every
	// tick after the cold build either loads or prunes clean work.
	for _, tk := range rep.Ticks[1:] {
		if tk.Loaded+tk.Pruned == 0 {
			t.Errorf("tick %d: no loads or prunes — nothing reused", tk.Tick)
		}
	}
	if rep.Ticks[0].PlanCache != "cold" {
		t.Errorf("tick 0 plan cache = %q, want cold", rep.Ticks[0].PlanCache)
	}
	t.Logf("\n%s", rep.String())
}

// TestContinuousIngestSliding runs the same schedule with sliding-window
// semantics: a delivery evicts the ring's oldest batch instead of
// replacing a scheduled slot. The reuse profile must survive the switch —
// a slide dirties exactly one slot chain plus the windowed suffix (the
// synthesizer's param carries the ring head), so the plan-cache outcomes
// match the tumbling run's, quiet stretches still converge to full hits,
// and the W-1 surviving slot chains are served from the store every tick.
func TestContinuousIngestSliding(t *testing.T) {
	rep, err := RunIngest(context.Background(), IngestConfig{
		Window:  3,
		Sliding: true,
		Scale:   workloads.Scale{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "sliding" {
		t.Fatalf("mode = %q, want sliding", rep.Mode)
	}
	if rep.ColdPlans != 9 || rep.FullHits != 6 {
		t.Errorf("plans: %d cold / %d full-hit, want 9 / 6: slides must not defeat plan reuse", rep.ColdPlans, rep.FullHits)
	}
	for _, tk := range rep.Ticks[1:] {
		if tk.Loaded+tk.Pruned == 0 {
			t.Errorf("tick %d: no loads or prunes — surviving window slots not reused", tk.Tick)
		}
		// A slide can dirty at most one 3-node slot chain plus the 3-node
		// windowed suffix; recomputing more means eviction invalidated a
		// surviving batch.
		if tk.Slot >= 0 && tk.Computed > 6 {
			t.Errorf("tick %d: computed %d nodes on a slide, want ≤ 6 (one chain + suffix)", tk.Tick, tk.Computed)
		}
	}
	if rep.TotalSavedSeconds <= 0 {
		t.Errorf("TotalSavedSeconds = %f, want > 0", rep.TotalSavedSeconds)
	}
	t.Logf("\n%s", rep.String())
}
