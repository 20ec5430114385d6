package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"helix/internal/core"
	"helix/internal/workloads"
)

func init() { workloads.RegisterAll() }

// testConfig keeps experiments fast: small data, short NLP cost.
func testConfig() Config {
	return Config{Scale: workloads.Scale{Rows: 0, CostFactor: 10}, Seed: 1}
}

func TestTable1HasAllScikitOps(t *testing.T) {
	rows := Table1()
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	want := []string{"fit(", "predict_proba", "predict(", "fit_predict", "transform(", "fit_transform", "score"}
	joined := Table1String()
	for _, w := range want {
		if !strings.Contains(joined, w) {
			t.Fatalf("Table 1 missing %q", w)
		}
	}
}

func TestTable2MatchesPaperSupport(t *testing.T) {
	rows := Table2()
	byWL := make(map[string]Table2Row)
	for _, r := range rows {
		byWL[r.Workload] = r
	}
	if len(byWL["census"].SupportedBy) != 3 {
		t.Fatal("census must be supported by all three systems")
	}
	has := func(xs []string, s string) bool {
		for _, x := range xs {
			if x == s {
				return true
			}
		}
		return false
	}
	if has(byWL["nlp"].SupportedBy, "keystoneml") {
		t.Fatal("KeystoneML must not support the IE workflow")
	}
	if has(byWL["mnist"].SupportedBy, "deepdive") || has(byWL["genomics"].SupportedBy, "deepdive") {
		t.Fatal("DeepDive must not support mnist/genomics")
	}
}

// TestFig5Shapes asserts the comparative claims of Figure 5 at test
// scale: HELIX OPT's cumulative time is below KeystoneML's on every
// shared workload, and below DeepDive's on NLP.
func TestFig5Shapes(t *testing.T) {
	r, err := Fig5(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"census", "genomics", "mnist"} {
		if sp := r.Speedup(wl, "keystoneml"); sp <= 1 {
			t.Errorf("%s: helix-opt speedup vs keystoneml = %.2f, want > 1", wl, sp)
		}
	}
	if sp := r.Speedup("nlp", "deepdive"); sp <= 2 {
		t.Errorf("nlp: helix-opt speedup vs deepdive = %.2f, want > 2 (linear DeepDive growth)", sp)
	}
	// DeepDive's NLP series grows linearly because it never reuses: with
	// reuse off every live node computes, so no iteration loads anything.
	for _, s := range r.Series["nlp"] {
		if s.System != "deepdive" {
			continue
		}
		for i, st := range s.States {
			if st[core.StateLoad] != 0 {
				t.Errorf("deepdive nlp iteration %d loaded %d nodes: unexpected reuse", i, st[core.StateLoad])
			}
		}
	}
	// Census 10-iteration series must exist for helix and keystoneml.
	if len(r.Series["census"]) < 2 {
		t.Fatal("census series incomplete")
	}
	if out := r.String(); !strings.Contains(out, "Figure 5") {
		t.Fatal("missing render")
	}
}

// TestFig6PPRIterationsCheap asserts Figure 6's visible property: on PPR
// iterations HELIX recomputes only PPR, so DPR+L/I time is near zero.
func TestFig6PPRIterationsCheap(t *testing.T) {
	r, err := Fig6(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Series["census"]
	var iter0, pprDPR float64
	iter0 = s.Breakdown[0][core.DPR] + s.Breakdown[0][core.LI]
	found := false
	for i := 1; i < len(s.Types); i++ {
		if s.Types[i] == core.PPR {
			pprDPR = s.Breakdown[i][core.DPR] + s.Breakdown[i][core.LI]
			found = true
			break
		}
	}
	if !found {
		t.Fatal("census sequence has no PPR iteration")
	}
	if pprDPR > iter0/4 {
		t.Errorf("PPR iteration DPR+L/I time %.4fs vs iteration-0 %.4fs: insufficient reuse", pprDPR, iter0)
	}
	if out := r.String(); !strings.Contains(out, "Mat") {
		t.Fatal("missing materialization column")
	}
}

// TestFig7aScalesWithData asserts Figure 7a's property: both systems
// scale with dataset size, and HELIX stays at or below KeystoneML.
func TestFig7aScalesWithData(t *testing.T) {
	r, err := Fig7a(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"helix-opt", "keystoneml"} {
		small, big := r.SizeScaling["census"][sys], r.SizeScaling["census10x"][sys]
		if big <= small {
			t.Errorf("%s: census10x (%.3f) not slower than census (%.3f)", sys, big, small)
		}
	}
	if r.SizeScaling["census10x"]["helix-opt"] >= r.SizeScaling["census10x"]["keystoneml"] {
		t.Error("helix-opt should beat keystoneml on census10x")
	}
}

// TestFig7bHelixBelowKeystone asserts Figure 7b's property at every
// cluster size.
func TestFig7bHelixBelowKeystone(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is slow")
	}
	r, err := Fig7b(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Workers {
		if r.ClusterScaling[w]["helix-opt"] >= r.ClusterScaling[w]["keystoneml"] {
			t.Errorf("%d workers: helix-opt %.3f ≥ keystoneml %.3f",
				w, r.ClusterScaling[w]["helix-opt"], r.ClusterScaling[w]["keystoneml"])
		}
	}
}

// retryTimingAssertion reruns a timing-marginal paper assertion on a
// fresh, independent series before failing: the policies' decisions rest
// on measured operator times, so a transient CPU-load spike on the test
// host can legitimately tip a near-equal comparison once. A genuine
// ordering regression reproduces on the immediate rerun; noise does not.
func retryTimingAssertion(t *testing.T, check func(t *testing.T) []string) {
	t.Helper()
	first := check(t)
	if len(first) == 0 {
		return
	}
	t.Logf("timing-marginal assertion violated once, retrying on a fresh series: %v", first)
	for _, v := range check(t) {
		t.Error(v)
	}
}

// TestFig8OptMatchesAMReuse asserts the paper's §6.6 finding: HELIX OPT
// achieves the same compute fractions as always-materialize.
func TestFig8OptMatchesAMReuse(t *testing.T) {
	retryTimingAssertion(t, func(t *testing.T) []string {
		r, err := Fig8(context.Background(), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var violations []string
		for _, wl := range []string{"census", "genomics"} {
			optSeries := r.Series[wl]["helix-opt"]
			am := r.Series[wl]["helix-am"].States
			for i, st := range optSeries.States {
				_, _, scOpt := Fractions(st)
				_, _, scAM := Fractions(am[i])
				// On DPR iterations OPT may recompute the cheap raw
				// intermediates it deliberately declined to materialize (the
				// paper's §6.5.2: "HELIX OPT reruns DPR ... because HELIX OPT
				// avoided materializing the large DPR output"), so a larger
				// compute fraction there is the heuristic working as designed.
				tol := 0.15
				if optSeries.Types[i] == core.DPR {
					tol = 0.40
				}
				if d := scOpt - scAM; d > tol || d < -tol {
					violations = append(violations,
						fmt.Sprintf("%s iteration %d (%s): compute fraction OPT %.2f vs AM %.2f", wl, i, optSeries.Types[i], scOpt, scAM))
				}
			}
		}
		return violations
	})
}

// TestFig9PolicyOrdering asserts Figure 9's ordering: OPT is the fastest
// policy and AM uses strictly more storage than OPT.
func TestFig9PolicyOrdering(t *testing.T) {
	retryTimingAssertion(t, func(t *testing.T) []string {
		r, err := Fig9(context.Background(), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var violations []string
		for _, wl := range FigureWorkloads {
			tot := r.Totals(wl)
			opt := tot["helix-opt"]
			for sys, v := range tot {
				if sys == "helix-opt" {
					continue
				}
				// Allow 25% tolerance: at unit-test scale, timer noise can
				// make near-equal policies cross.
				if v < opt*0.75 {
					violations = append(violations,
						fmt.Sprintf("%s: %s (%.3f) materially faster than helix-opt (%.3f)", wl, sys, v, opt))
				}
			}
		}
		for _, wl := range []string{"census", "genomics"} {
			st := r.FinalStorage(wl)
			// AM materializes a superset of what OPT does, so AM < OPT is always
			// a violation. The strict gap additionally requires OPT to decline
			// something; under the race detector (or a transient CPU-load
			// spike, which the retry absorbs), inflated compute times tip the
			// cost model into accepting every node, so equality is legitimate
			// there and only asserted in unraced runs.
			if st["helix-am"] < st["helix-opt"] || (!raceEnabled && st["helix-am"] == st["helix-opt"]) {
				violations = append(violations,
					fmt.Sprintf("%s: AM storage %d ≤ OPT storage %d", wl, st["helix-am"], st["helix-opt"]))
			}
			if st["helix-nm"] != 0 {
				violations = append(violations,
					fmt.Sprintf("%s: NM stored %d bytes", wl, st["helix-nm"]))
			}
		}
		return violations
	})
}

// TestFig10MemoryRecorded asserts the memory sampler produces plausible
// bounded values.
func TestFig10MemoryRecorded(t *testing.T) {
	r, err := Fig10(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for wl, s := range r.Series {
		for i := range s.PeakMem {
			if s.PeakMem[i] == 0 || s.AvgMem[i] == 0 {
				t.Errorf("%s iteration %d: memory not sampled", wl, i)
			}
			if s.PeakMem[i] < s.AvgMem[i] {
				t.Errorf("%s iteration %d: peak < avg", wl, i)
			}
		}
	}
}

func TestAblationOEPGreedyHasRegret(t *testing.T) {
	mean, worst := AblationOEPGreedy(300, 7)
	if mean < 0 || worst < mean {
		t.Fatalf("regret stats inconsistent: mean %.3f worst %.3f", mean, worst)
	}
	// Greedy should be suboptimal on at least some instances.
	if worst == 0 {
		t.Fatal("greedy never suboptimal across 300 random DAGs: ablation not discriminating")
	}
}

func TestAblationPruningHelps(t *testing.T) {
	on, off, err := AblationPruning(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if on <= 0 || off <= 0 {
		t.Fatal("ablation produced zero times")
	}
	// At this scale pruning mainly avoids the raceExt-style dead
	// extractors; times should at minimum not explode with pruning on.
	if on > off*1.5 {
		t.Fatalf("pruning on (%.3f) much slower than off (%.3f)", on, off)
	}
}

func TestAblationThresholdSweepRuns(t *testing.T) {
	res, ths, err := AblationOMPThreshold(context.Background(), Config{Scale: workloads.Scale{}, Seed: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) != 4 || len(res) != 4 {
		t.Fatalf("sweep = %v", res)
	}
	for th, v := range res {
		if v <= 0 {
			t.Fatalf("threshold %v: zero time", th)
		}
	}
}

func TestAblationAmortizedOMP(t *testing.T) {
	r, err := AblationAmortizedOMP(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.StreamingSeconds <= 0 || r.AmortizedSeconds <= 0 {
		t.Fatal("zero run times")
	}
	// The user model only removes marginal materializations: storage must
	// not grow, run time must stay within 2x (it should be close).
	if r.AmortizedStorage > r.StreamingStorage {
		t.Errorf("amortized storage %d > streaming %d", r.AmortizedStorage, r.StreamingStorage)
	}
	if r.AmortizedSeconds > r.StreamingSeconds*2 {
		t.Errorf("amortized time %.3f ≫ streaming %.3f", r.AmortizedSeconds, r.StreamingSeconds)
	}
}
