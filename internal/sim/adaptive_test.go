package sim

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"helix"
	"helix/internal/clock"
	"helix/internal/store"
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

// The adaptive proof harness: a deliberately skewed workload that makes
// the carried cost model wrong mid-series, run twice — once statically,
// once with the mid-run divergence monitor armed — so the test can measure
// what adaptation buys on the tick where the skew hits, in model seconds.
//
// Tick 0 runs every operator in a cheap mode: the session materializes
// all twelve fan outputs and carries per-operator statistics saying
// computing them is cheaper than loading them. The harness then flips the
// operators into a slow mode (the statistics are now ~20× off) without
// changing any signature, so tick 1 plans all-compute from stale costs.
// The static session pays the full recompute; the adaptive session
// notices the divergence after the first completions, corrects the
// frontier, re-solves cold over the corrected estimates, and loads
// the rest. Tick 2 shows both sessions recovered: post-run observation
// folded the measured timings into the carried statistics, so even the
// static session plans loads from then on — adaptation only changes the
// tick where the model was wrong.

const (
	// adaptiveFan is the number of slow fan outputs.
	adaptiveFan = 12
	// adaptiveArtifact sizes each child artifact (2 MiB): large enough
	// that loads are real work under the simulated disk (a ~13ms load
	// estimate, far above the store's bandwidth-model floor).
	adaptiveArtifact = 2 << 20
	// adaptiveFastDelay/adaptiveSlowDelay are the per-child compute costs
	// in the two modes. Fast sits well below the ~13ms simulated-disk load
	// cost of a 2 MiB artifact (so tick 1 plans all-compute from the
	// carried statistics); slow sits far above it (so loading wins once
	// the model is corrected).
	adaptiveFastDelay = 3 * time.Millisecond
	adaptiveSlowDelay = 80 * time.Millisecond
	// adaptiveThreshold is the divergence threshold the adaptive mode arms.
	adaptiveThreshold = 0.5
)

// AdaptiveTick is one iteration of one mode of the adaptive comparison.
type AdaptiveTick struct {
	Iteration int
	Seconds   float64
	// ProjectedSeconds is the plan's final T(W,s) projection — the initial
	// plan's, or the last mid-run re-plan's when one was adopted.
	ProjectedSeconds float64
	// GapSeconds is |Seconds − ProjectedSeconds|: the residual projection
	// error of the cost model on this tick.
	GapSeconds float64
	PlanCache  string
	Replans    int
	Solves     int
	Swapped    int
}

// AdaptiveMode is one full series (static or adaptive).
type AdaptiveMode struct {
	Ticks        []AdaptiveTick
	TotalSeconds float64
}

// SkewTick returns the metrics of the tick where the cost skew hit
// (iteration 1) — the tick the two modes differ on.
func (m *AdaptiveMode) SkewTick() AdaptiveTick { return m.Ticks[1] }

// AdaptiveReport is the static-versus-adaptive comparison RunAdaptive
// produces.
type AdaptiveReport struct {
	Threshold float64
	Static    AdaptiveMode
	Adaptive  AdaptiveMode
}

// String renders the static-versus-adaptive per-tick table.
func (r *AdaptiveReport) String() string {
	out := fmt.Sprintf("Adaptive re-planning (threshold %.2f): static %.3fs vs adaptive %.3fs total",
		r.Threshold, r.Static.TotalSeconds, r.Adaptive.TotalSeconds)
	if st, ad := r.Static.SkewTick().Seconds, r.Adaptive.SkewTick().Seconds; ad > 0 {
		out += fmt.Sprintf("; skew-tick speedup %.1f×", st/ad)
	}
	out += "\nmode     tick  wall(s)  proj(s)  gap(s)   cache    replans solves swapped\n"
	for _, mode := range []struct {
		name string
		m    AdaptiveMode
	}{{"static", r.Static}, {"adaptive", r.Adaptive}} {
		for _, t := range mode.m.Ticks {
			out += fmt.Sprintf("%-8s %-5d %-8.3f %-8.3f %-8.3f %-8s %-7d %-6d %d\n",
				mode.name, t.Iteration, t.Seconds, t.ProjectedSeconds, t.GapSeconds,
				t.PlanCache, t.Replans, t.Solves, t.Swapped)
		}
	}
	return out
}

// adaptiveWorkflow builds the fan: a cheap source feeding adaptiveFan
// deterministic outputs whose cost is governed by the shared slow flag.
// Signatures never change across ticks, so flipping the flag skews the
// carried statistics without marking anything original.
func adaptiveWorkflow(slow *atomic.Bool) *helix.Workflow {
	wf := helix.New("adaptive-skew")
	src := wf.Source("seed", "adaptive-seed-v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		return []float64{1, 2, 3}, nil
	})
	for i := 0; i < adaptiveFan; i++ {
		i := i
		wf.Extractor(fmt.Sprintf("fan%02d", i), "adaptive-fan-v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			d := adaptiveFastDelay
			if slow.Load() {
				d = adaptiveSlowDelay
			}
			clock.From(ctx).Sleep(d)
			// The artifact is raw bytes, bulk-zeroed: []byte encodes and
			// decodes by block copy, so building and storing it is cheap
			// host work beside the billed sleep.
			rows := make([]byte, adaptiveArtifact)
			rows[0] = byte(i + 1)
			return rows, nil
		}, src).IsOutput()
	}
	return wf
}

// RunAdaptive drives the skewed fan through three ticks under one mode
// pair — static (adaptive off) and adaptive (run-scoped WithAdaptive on
// the skewed tick and after) — in separate sessions with identical
// workloads, each on its own model clock, and reports per-tick model
// seconds, projection gap, and planner counters.
func RunAdaptive(ctx context.Context) (*AdaptiveReport, error) {
	store.RegisterValueType([]byte(nil))
	rep := &AdaptiveReport{Threshold: adaptiveThreshold}
	var err error
	if rep.Static, err = runAdaptiveMode(ctx, 0); err != nil {
		return nil, fmt.Errorf("sim: adaptive comparison, static mode: %w", err)
	}
	if rep.Adaptive, err = runAdaptiveMode(ctx, adaptiveThreshold); err != nil {
		return nil, fmt.Errorf("sim: adaptive comparison, adaptive mode: %w", err)
	}
	return rep, nil
}

// runAdaptiveMode runs one session through the three-tick sequence;
// threshold 0 leaves the divergence monitor disarmed (the static
// baseline).
func runAdaptiveMode(ctx context.Context, threshold float64) (AdaptiveMode, error) {
	var mode AdaptiveMode
	dir, err := os.MkdirTemp("", "helix-adaptive-*")
	if err != nil {
		return mode, err
	}
	defer os.RemoveAll(dir)
	ctx = clock.With(ctx, newModel())
	var tally runTally
	sess, err := helix.Open(dir,
		helix.WithDiskThroughput(PaperDiskBytesPerSec),
		helix.WithSyncMaterialization(true),
		helix.WithObserver(tally.observe))
	if err != nil {
		return mode, err
	}
	defer sess.Close()

	var slow atomic.Bool
	for tick := 0; tick < 3; tick++ {
		if tick == 1 {
			slow.Store(true) // the carried cost model is now ~20× wrong
		}
		var runOpts []helix.Option
		if threshold > 0 && tick >= 1 {
			runOpts = append(runOpts, helix.WithAdaptive(threshold))
		}
		tally.reset()
		res, err := sess.Run(ctx, adaptiveWorkflow(&slow), runOpts...)
		if err != nil {
			return mode, fmt.Errorf("tick %d: %w", tick, err)
		}
		t := AdaptiveTick{Iteration: tick, Seconds: res.Wall.Seconds()}
		if p := tally.plan; p != nil {
			t.ProjectedSeconds = p.ProjectedSeconds
			t.PlanCache = p.Outcome.String()
		}
		// A re-plan that was adopted refreshes the projection; the last
		// one wins, mirroring Result.Plan.
		for _, re := range tally.replans {
			if re.Planned {
				t.ProjectedSeconds = re.ProjectedSeconds
			}
		}
		if rs := tally.stats; rs != nil {
			t.Replans, t.Solves, t.Swapped = rs.Replans, rs.Solves, rs.Swapped
		}
		t.GapSeconds = math.Abs(t.Seconds - t.ProjectedSeconds)
		mode.Ticks = append(mode.Ticks, t)
		mode.TotalSeconds += t.Seconds
	}
	return mode, nil
}
