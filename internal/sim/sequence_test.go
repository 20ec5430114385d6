package sim

import (
	"context"
	"testing"

	"helix/internal/core"
)

func TestSampleSequenceDistribution(t *testing.T) {
	const n = 2000
	seq := SampleSequence("census", n, 1)
	if len(seq) != n {
		t.Fatalf("len = %d", len(seq))
	}
	if seq[0] != core.DPR {
		t.Fatal("iteration 0 must be the initial DPR build")
	}
	counts := map[core.Component]int{}
	for _, c := range seq[1:] {
		counts[c]++
	}
	// Census domain: PPR ≈ 60%, DPR ≈ 30%, L/I ≈ 10%.
	frac := func(c core.Component) float64 { return float64(counts[c]) / float64(n-1) }
	if f := frac(core.PPR); f < 0.5 || f > 0.7 {
		t.Fatalf("PPR fraction = %.2f, want ≈0.6", f)
	}
	if f := frac(core.DPR); f < 0.2 || f > 0.4 {
		t.Fatalf("DPR fraction = %.2f, want ≈0.3", f)
	}
}

func TestSampleSequenceAllDPRForNLP(t *testing.T) {
	for _, c := range SampleSequence("nlp", 50, 2) {
		if c != core.DPR {
			t.Fatal("nlp domain must sample only DPR iterations")
		}
	}
}

func TestSampleSequenceDeterministic(t *testing.T) {
	a := SampleSequence("mnist", 30, 7)
	b := SampleSequence("mnist", 30, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestSampleSequenceEmpty(t *testing.T) {
	if SampleSequence("census", 0, 1) != nil {
		t.Fatal("zero iterations should return nil")
	}
}

// TestRobustnessAcrossRandomSchedules is the paper's methodology run over
// freshly sampled schedules instead of the fixed figure schedule: HELIX
// OPT must beat the no-reuse baseline on every sampled schedule.
//
// One draw is a measured tie, and the test says so instead of dropping
// it: seed 2's six iterations are five DPR edits and one PPR, so OPT's
// whole edge over recomputing everything is that one iteration — about
// what it pays to materialize inline on the other five (OPT / no-reuse
// 0.61–1.09 over 30 runs, median ≈ 0.9; until the baseline stopped
// serializing values it then threw away, those encodes hid it). A
// schedule with at most one reuse-friendly edit is therefore held to
// nearTie, every other to a strict win, and
// TestRobustnessAtPaperScheduleLength holds the same three draws to a
// strict win at the paper's ten iterations. Serial for the same reason
// that one is: a parallel sibling's load lands unevenly on the two series
// being compared.
func TestRobustnessAcrossRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			optVsNoReuse(t, 6, seed, nearTie)
		})
	}
}

// TestRobustnessAtPaperScheduleLength extends the same three draws to
// ten iterations, the paper's schedule length: OPT must win each one
// outright. Serial, because a parallel sibling's load lands unevenly on
// the two series being compared.
func TestRobustnessAtPaperScheduleLength(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		optVsNoReuse(t, 10, seed, 1)
	}
}

// nearTie is how far above the no-reuse baseline OPT may land on a
// schedule whose edits are all DPR but at most one.
const nearTie = 1.25

// optVsNoReuse runs census under a sampled schedule as HELIX OPT and as
// the KeystoneML model and requires OPT's total below the baseline's —
// or below tie × the baseline's when at most one edit can reuse anything.
// The two series are timed apart, so a burst from another test binary
// sharing the CPUs can land on one of them alone: each system's total is
// the smaller of two attempts, run opt, baseline, baseline, opt.
func optVsNoReuse(t *testing.T, iterations int, seed int64, tie float64) {
	t.Helper()
	ctx := context.Background()
	var attempts [4]float64
	var seq []core.Component
	for i, sys := range []System{HelixOpt, KeystoneML, KeystoneML, HelixOpt} {
		base, err := NewWorkload("census", tinyScale(), 1)
		if err != nil {
			t.Fatal(err)
		}
		wl := WithSampledSequence(base, iterations, seed)
		res, err := RunSeries(ctx, wl, sys, Config{})
		if err != nil {
			t.Fatal(err)
		}
		attempts[i], seq = res.TotalSeconds(), wl.Schedule
	}
	totals := [2]float64{min(attempts[0], attempts[3]), min(attempts[1], attempts[2])}
	reuse := 0
	for _, c := range seq[1:] {
		if c != core.DPR {
			reuse++
		}
	}
	bound := 1.0
	if reuse <= 1 {
		bound = tie
	}
	t.Logf("seed %d %v: helix-opt %.3fs (of %.3f, %.3f), keystoneml %.3fs (of %.3f, %.3f), ratio %.2f (bound %.2f)",
		seed, seq, totals[0], attempts[0], attempts[3], totals[1], attempts[1], attempts[2], totals[0]/totals[1], bound)
	if totals[0] >= bound*totals[1] {
		t.Errorf("schedule seed %d: helix-opt %.3fs ≥ %.2f × keystoneml %.3fs",
			seed, totals[0], bound, totals[1])
	}
}
