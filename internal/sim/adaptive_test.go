package sim

import (
	"context"
	"testing"
)

// TestRunAdaptiveBeatsStaticOnSkew is the end-to-end adaptive acceptance
// scenario, on model time: on the tick where the carried cost model is
// ~20× wrong, the adaptive session re-plans mid-run and finishes ahead of
// the static session; on every other tick the two are billed the same.
func TestRunAdaptiveBeatsStaticOnSkew(t *testing.T) {
	rep, err := RunAdaptive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	st, ad := rep.Static.SkewTick(), rep.Adaptive.SkewTick()

	// The static baseline must never re-plan; the adaptive run must.
	for _, tick := range rep.Static.Ticks {
		if tick.Replans != 0 || tick.Swapped != 0 {
			t.Fatalf("static tick %d re-planned: %+v", tick.Iteration, tick)
		}
	}
	if ad.Replans < 1 {
		t.Fatalf("adaptive skew tick never re-planned: %+v", ad)
	}
	if ad.Swapped < 1 {
		t.Fatalf("adaptive skew tick swapped nothing to loads: %+v", ad)
	}
	// Solve bounding: initial solve plus at most the default budget.
	if ad.Solves > 1+3 {
		t.Fatalf("adaptive skew tick consumed %d solves, budget allows 4", ad.Solves)
	}

	// The payoff, in model seconds: adaptation beats the static recompute
	// on the skewed tick, and its corrected projection tracks the bill more
	// closely.
	if !(ad.Seconds < st.Seconds) {
		t.Fatalf("adaptive skew tick %.4fs not below static %.4fs", ad.Seconds, st.Seconds)
	}
	if !(ad.GapSeconds < st.GapSeconds) {
		t.Fatalf("adaptive projection gap %.4fs not tighter than static %.4fs", ad.GapSeconds, st.GapSeconds)
	}

	// Adaptation changes only the tick where the model was wrong: tick 0
	// precedes the skew, and by tick 2 post-run observation has corrected
	// the carried statistics in both sessions, so the two bills are equal
	// there — and both below the static skew tick.
	for _, i := range []int{0, 2} {
		if s, a := rep.Static.Ticks[i].Seconds, rep.Adaptive.Ticks[i].Seconds; s != a {
			t.Fatalf("tick %d: static %.4fs, adaptive %.4fs: want equal", i, s, a)
		}
	}
	if st2 := rep.Static.Ticks[2]; !(st2.Seconds < st.Seconds) {
		t.Fatalf("static tick 2 (%.4fs) did not recover from the skew tick (%.4fs): carried statistics failed to self-correct", st2.Seconds, st.Seconds)
	}
	if ad2 := rep.Adaptive.Ticks[2]; ad2.Solves > 1+3 {
		t.Fatalf("adaptive tick 2 consumed %d solves, budget allows 4: %+v", ad2.Solves, ad2)
	}
}
