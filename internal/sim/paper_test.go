package sim

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"helix/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper.golden with the current tables")

// testPaperConfig is the suite the tests read: the paper schedules at the
// workloads' base sizes with a light NLP parse — what
// `helixrun -paper -cost 10` prints.
func testPaperConfig() PaperConfig { return PaperConfig{Scale: paperScale, Seed: 1} }

// suite is the paper suite, run once per test binary and read by every
// figure test.
var suite struct {
	once sync.Once
	p    *Paper
	err  error
}

func paper(t *testing.T) *Paper {
	t.Helper()
	suite.once.Do(func() { suite.p, suite.err = RunPaper(context.Background(), testPaperConfig()) })
	if suite.err != nil {
		t.Fatal(suite.err)
	}
	return suite.p
}

// TestPaperDeterministic: the suite run a second time in the same process
// — capped at two iterations per series, which still plans every series
// against carried statistics and a populated store, and concurrently with
// the first run when this test is the one that starts it — renders
// exactly the tables of the first run's first two iterations. Nothing a
// run leaves behind in the process (plan caches, registries, counters),
// and nothing another run does beside it, reaches a series' bill.
func TestPaperDeterministic(t *testing.T) {
	const iters = 2
	cfg := testPaperConfig()
	cfg.Iterations = iters
	type result struct {
		p   *Paper
		err error
	}
	second := make(chan result, 1)
	go func() {
		p, err := RunPaper(context.Background(), cfg)
		second <- result{p, err}
	}()
	full := paper(t)
	again := <-second
	if again.err != nil {
		t.Fatal(again.err)
	}
	prefix := &Paper{Config: cfg, series: make(map[paperKey]*SeriesResult, len(full.series))}
	for k, s := range full.series {
		cp := *s
		cp.Metrics = cp.Metrics[:min(iters, len(cp.Metrics))]
		prefix.series[k] = &cp
	}
	if got, want := again.p.Tables(false), prefix.Tables(false); got != want {
		t.Fatalf("a second run of the suite differs from the first:\nsecond:\n%s\nfirst:\n%s", got, want)
	}
}

// TestPaperGolden pins every modelled table. Regenerate with
// `go test ./internal/sim -run TestPaperGolden -update` and review the
// diff: a change here is a change to a figure.
func TestPaperGolden(t *testing.T) {
	got := paper(t).Tables(false)
	path := filepath.Join("testdata", "paper.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("paper tables differ from %s (rerun with -update and review the diff):\n%s", path, got)
	}
}

// TestPaperTable2 (Table 2): the suite ran a series for exactly the
// (workload, system) pairs the paper marks as supported — every system on
// census, no KeystoneML on the IE workflow, no DeepDive on MNIST or
// genomics.
func TestPaperTable2(t *testing.T) {
	p := paper(t)
	unsupported := map[string][]string{
		KeystoneML.Name: {nlp},
		DeepDive.Name:   {genomics, mnist},
	}
	for _, sys := range []string{HelixOpt.Name, KeystoneML.Name, DeepDive.Name} {
		for _, wl := range figureWorkloads() {
			want := !slices.Contains(unsupported[sys], wl)
			if got := p.Series(wl, sys) != nil; got != want {
				t.Errorf("%s on %s: series ran = %v, want %v", sys, wl, got, want)
			}
		}
	}
}

// TestPaperFig5 (Figure 5): HELIX OPT's cumulative time is below
// KeystoneML's on every workload KeystoneML supports, and below half of
// DeepDive's on NLP, where DeepDive reuses nothing and grows linearly.
func TestPaperFig5(t *testing.T) {
	p := paper(t)
	for _, wl := range []string{census, genomics, mnist} {
		if opt, ks := p.Total(wl, HelixOpt.Name), p.Total(wl, KeystoneML.Name); !(opt < ks) {
			t.Errorf("%s: helix-opt %.4fs, keystoneml %.4fs: want helix-opt below", wl, opt, ks)
		}
	}
	if opt, dd := p.Total(nlp, HelixOpt.Name), p.Total(nlp, DeepDive.Name); !(2*opt < dd) {
		t.Errorf("nlp: helix-opt %.4fs, deepdive %.4fs: want a speedup above 2×", opt, dd)
	}
	for _, m := range p.Series(nlp, DeepDive.Name).Metrics {
		if l := m.States[core.StateLoad]; l != 0 {
			t.Errorf("deepdive nlp iteration %d loaded %d nodes: DeepDive reuses nothing", m.Iteration, l)
		}
	}
}

// TestPaperFig6 (Figure 6): on a PPR iteration HELIX recomputes only
// PPR, so its DPR + L/I time is under a quarter of iteration 0's.
func TestPaperFig6(t *testing.T) {
	s := paper(t).Series(census, HelixOpt.Name)
	upstream := func(m IterationMetrics) float64 { return m.Breakdown[core.DPR] + m.Breakdown[core.LI] }
	iter0, ppr := upstream(s.Metrics[0]), 0
	for _, m := range s.Metrics[1:] {
		if m.Type != core.PPR {
			continue
		}
		ppr++
		if !(4*upstream(m) < iter0) {
			t.Errorf("PPR iteration %d: DPR+L/I %.4fs against iteration 0's %.4fs: want under a quarter", m.Iteration, upstream(m), iter0)
		}
	}
	if ppr == 0 {
		t.Fatal("census schedule has no PPR iteration")
	}
}

// TestPaperFig7a (Figure 7a): both systems take longer on 10× the data,
// and HELIX stays below KeystoneML there.
func TestPaperFig7a(t *testing.T) {
	p := paper(t)
	for _, sys := range []string{HelixOpt.Name, KeystoneML.Name} {
		if small, big := p.Total(census, sys), p.Total(census10x, sys); !(small < big) {
			t.Errorf("%s: census10x %.4fs not above census %.4fs", sys, big, small)
		}
	}
	if opt, ks := p.Total(census10x, HelixOpt.Name), p.Total(census10x, KeystoneML.Name); !(opt < ks) {
		t.Errorf("census10x: helix-opt %.4fs, keystoneml %.4fs: want helix-opt below", opt, ks)
	}
}

// TestPaperFig7b (Figure 7b): HELIX stays below KeystoneML at every
// cluster size, and — the model's only cluster term being the
// per-worker barrier — both pay more on every larger cluster.
func TestPaperFig7b(t *testing.T) {
	p := paper(t)
	prev := map[string]float64{}
	for _, w := range clusterWorkers() {
		wl := clusterWorkload(w)
		if opt, ks := p.Total(wl, HelixOpt.Name), p.Total(wl, KeystoneML.Name); !(opt < ks) {
			t.Errorf("%d workers: helix-opt %.4fs, keystoneml %.4fs: want helix-opt below", w, opt, ks)
		}
		for _, sys := range []string{HelixOpt.Name, KeystoneML.Name} {
			if tot := p.Total(wl, sys); !(prev[sys] < tot) {
				t.Errorf("%s on %d workers: %.4fs, not above the smaller cluster's %.4fs", sys, w, tot, prev[sys])
			}
			prev[sys] = p.Total(wl, sys)
		}
	}
}

// TestPaperFig8 (Figure 8, §6.6: "HELIX OPT enables the exact same reuse
// as HELIX AM"): on census and genomics OPT puts exactly as many nodes in
// each state as always-materialize does, on every iteration.
func TestPaperFig8(t *testing.T) {
	p := paper(t)
	for _, wl := range []string{census, genomics} {
		opt, am := p.Series(wl, HelixOpt.Name), p.Series(wl, HelixAM.Name)
		for i, m := range opt.Metrics {
			if !reflect.DeepEqual(m.States, am.Metrics[i].States) {
				t.Errorf("%s iteration %d (%s): helix-opt states %v, helix-am %v", wl, i, m.Type, m.States, am.Metrics[i].States)
			}
		}
	}
}

// TestPaperFig9 (Figure 9): OPT is the fastest materialization policy on
// every workload, AM stores strictly more than OPT, and NM stores only
// the outputs every policy must keep.
func TestPaperFig9(t *testing.T) {
	p := paper(t)
	for _, wl := range figureWorkloads() {
		opt := p.Total(wl, HelixOpt.Name)
		for _, sys := range []string{HelixAM.Name, HelixNM.Name} {
			if p.Series(wl, sys) == nil {
				continue
			}
			if other := p.Total(wl, sys); !(opt < other) {
				t.Errorf("%s: helix-opt %.4fs not below %s %.4fs", wl, opt, sys, other)
			}
		}
	}
	for _, wl := range []string{census, genomics} {
		if opt, am := p.FinalStorage(wl, HelixOpt.Name), p.FinalStorage(wl, HelixAM.Name); !(opt < am) {
			t.Errorf("%s: helix-am stores %d B, helix-opt %d B: want AM above", wl, am, opt)
		}
		if nm, opt := p.FinalStorage(wl, HelixNM.Name), p.FinalStorage(wl, HelixOpt.Name); !(nm < opt) {
			t.Errorf("%s: helix-nm stores %d B, helix-opt %d B: want NM below", wl, nm, opt)
		}
	}
}

// TestPaperFig10 (Figure 10): every HELIX OPT iteration sampled the heap.
// The one measured column: asserted for presence and consistency only.
func TestPaperFig10(t *testing.T) {
	p := paper(t)
	for _, wl := range figureWorkloads() {
		for _, m := range p.Series(wl, HelixOpt.Name).Metrics {
			if m.AvgMemBytes == 0 || m.PeakMemBytes < m.AvgMemBytes {
				t.Errorf("%s iteration %d: heap peak %d, avg %d", wl, m.Iteration, m.PeakMemBytes, m.AvgMemBytes)
			}
		}
	}
	if out := p.Tables(true); !strings.Contains(out, "Figure 10 — census: HELIX OPT heap") {
		t.Errorf("Tables(true) lacks Figure 10:\n%s", out)
	}
}

// TestPaperAblationThreshold: raising Algorithm 2's threshold never
// stores more, and the paper's 2 beats both ends of the sweep (1: store
// nearly everything; 8: store almost nothing).
func TestPaperAblationThreshold(t *testing.T) {
	p := paper(t)
	ths := ablationThresholds()
	for i := 1; i < len(ths); i++ {
		lo, hi := thresholdSystem(ths[i-1]).Name, thresholdSystem(ths[i]).Name
		if a, b := p.FinalStorage(census, lo), p.FinalStorage(census, hi); a < b {
			t.Errorf("threshold %g stores %d B, threshold %g %d B: want non-increasing", ths[i-1], a, ths[i], b)
		}
	}
	paperTh := p.Total(census, HelixOpt.Name)
	for _, th := range []float64{1, 8} {
		if other := p.Total(census, thresholdSystem(th).Name); !(paperTh < other) {
			t.Errorf("threshold 2 %.4fs not below threshold %g %.4fs", paperTh, th, other)
		}
	}
}

// TestPaperAblationPruning (§5.4): slicing away the unused raceExt makes
// every census series cheaper than running it.
func TestPaperAblationPruning(t *testing.T) {
	p := paper(t)
	if on, off := p.Total(census, HelixOpt.Name), p.Total(census, noPruningSystem().Name); !(on < off) {
		t.Errorf("pruning on %.4fs, off %.4fs: want on below", on, off)
	}
}

// TestPaperAblationAmortized: the survey-weighted user model (§5.3's
// extension) never spends more storage or time than Algorithm 2 on the
// PPR-heavy census schedule.
func TestPaperAblationAmortized(t *testing.T) {
	p := paper(t)
	am := amortizedSystem().Name
	if st, a := p.FinalStorage(census, HelixOpt.Name), p.FinalStorage(census, am); a > st {
		t.Errorf("amortized stores %d B, streaming %d B", a, st)
	}
	if st, a := p.Total(census, HelixOpt.Name), p.Total(census, am); a > st {
		t.Errorf("amortized %.4fs, streaming %.4fs", a, st)
	}
}

// TestPaperOutputsAgree (Theorem 1 at the system level): on every
// iteration of the deterministic workloads, every system produces the
// outputs HELIX NM computes.
func TestPaperOutputsAgree(t *testing.T) {
	p := paper(t)
	for _, wl := range []string{census, genomics, nlp} {
		ref := p.Series(wl, HelixNM.Name)
		for key, s := range p.series {
			if key.workload != wl {
				continue
			}
			for i, m := range s.Metrics {
				if !reflect.DeepEqual(m.Outputs, ref.Metrics[i].Outputs) {
					t.Errorf("%s iteration %d: %s outputs differ from helix-nm's", wl, i, s.System)
				}
			}
		}
	}
}
