package sim

import (
	"context"
	"testing"
)

// TestSharedWarmStart is the cross-session reuse claim on model time:
// sessions attached to one shared store after a cold session published
// census answer their first run from the store and the shared plan cache
// — a full fingerprint hit, no max-flow solve, no computed operator — for
// at most half the cold session's bill; they publish nothing new; and a
// session running the first edit of the schedule recomputes only what the
// edit changed.
func TestSharedWarmStart(t *testing.T) {
	series, err := RunSharedWarmStart(context.Background(), census, paperScale, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cold := series.Cold
	if cold.Computes == 0 {
		t.Fatalf("cold session computed nothing (plan %s)", cold.PlanCache)
	}
	for _, w := range series.Warm {
		if w.PlanCache != "hit" || w.Solves != 0 || w.Computes != 0 {
			t.Errorf("warm session %d: plan %q, %d solves, %d computed: want a hit, 0, 0", w.Session, w.PlanCache, w.Solves, w.Computes)
		}
		if !(2*w.Seconds <= cold.Seconds) {
			t.Errorf("warm session %d billed %.4fs against cold %.4fs: want at most half", w.Session, w.Seconds, cold.Seconds)
		}
	}
	if series.ArtifactsAfter != series.Artifacts {
		t.Errorf("warm sessions grew the store from %d to %d artifacts: shared artifacts must be stored once", series.Artifacts, series.ArtifactsAfter)
	}
	if !(series.Suffix.Computes < cold.Computes) {
		t.Errorf("suffix session computed %d operators, cold %d: prefix sharing failed", series.Suffix.Computes, cold.Computes)
	}
}
