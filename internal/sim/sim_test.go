package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"helix"
	"helix/internal/core"
	"helix/internal/workloads"
)

func init() { workloads.RegisterAll() }

// paperScale is the scale the tests' series and the reference run use:
// the workloads' base sizes, a light NLP parse.
var paperScale = workloads.Scale{Rows: 1, CostFactor: 10}

func TestSupportsMatchesTable2(t *testing.T) {
	cases := []struct {
		system, workload string
		want             bool
	}{
		{"helix-opt", "census", true},
		{"helix-opt", "genomics", true},
		{"helix-opt", "nlp", true},
		{"helix-opt", "mnist", true},
		{"keystoneml", "census", true},
		{"keystoneml", "genomics", true},
		{"keystoneml", "nlp", false},
		{"keystoneml", "mnist", true},
		{"deepdive", "census", true},
		{"deepdive", "genomics", false},
		{"deepdive", "nlp", true},
		{"deepdive", "mnist", false},
	}
	for _, c := range cases {
		if got := Supports(c.system, c.workload); got != c.want {
			t.Errorf("Supports(%s, %s) = %v, want %v", c.system, c.workload, got, c.want)
		}
	}
}

func TestNewWorkloadNames(t *testing.T) {
	for _, name := range []string{"census", "census10x", "genomics", "nlp", "mnist"} {
		wl, err := NewWorkload(name, paperScale, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wl == nil {
			t.Fatalf("%s: nil workload", name)
		}
	}
	if _, err := NewWorkload("nope", paperScale, 1); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestRunSeriesCensusHelixOpt(t *testing.T) {
	wl, err := NewWorkload("census", paperScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSeries(context.Background(), wl, HelixOpt, Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 4 {
		t.Fatalf("metrics = %d iterations", len(res.Metrics))
	}
	cum := res.Cumulative()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("cumulative time decreased")
		}
	}
	if res.TotalSeconds() <= 0 {
		t.Fatal("zero total time")
	}
	for _, m := range res.Metrics {
		if len(m.Outputs) == 0 {
			t.Fatalf("iteration %d produced no outputs", m.Iteration)
		}
	}
}

func TestRunSeriesDeepDiveStopsAtNonDPR(t *testing.T) {
	wl, err := NewWorkload("census", paperScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSeries(context.Background(), wl, DeepDive, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The census sequence is DPR,DPR,DPR,PPR,...: DeepDive runs 3.
	if len(res.Metrics) != 3 {
		t.Fatalf("DeepDive ran %d iterations, want 3 (DPR prefix)", len(res.Metrics))
	}
	for _, m := range res.Metrics {
		if m.Type != core.DPR {
			t.Fatal("DeepDive ran a non-DPR iteration")
		}
	}
}

// TestRunSeriesReuseBeatsNoReuse is the core claim of the paper on the
// paper suite's census series: HELIX OPT's cumulative model time is below
// the KeystoneML model's after every iteration, the first included.
func TestRunSeriesReuseBeatsNoReuse(t *testing.T) {
	p := paper(t)
	opt, ks := p.Series(census, HelixOpt.Name).Cumulative(), p.Series(census, KeystoneML.Name).Cumulative()
	for i := range opt {
		if !(opt[i] < ks[i]) {
			t.Fatalf("after iteration %d: helix-opt %.4fs not below keystoneml %.4fs", i, opt[i], ks[i])
		}
	}
}

// TestRunSeriesOutputsAgreeAcrossSystems is Theorem 1 at the system
// level: HELIX OPT produces the from-scratch system's outputs on every
// iteration of the census schedule (TestPaperOutputsAgree extends it to
// every system and deterministic workload).
func TestRunSeriesOutputsAgreeAcrossSystems(t *testing.T) {
	p := paper(t)
	opt, ks := p.Series(census, HelixOpt.Name), p.Series(census, KeystoneML.Name)
	for i := range opt.Metrics {
		a := opt.Metrics[i].Outputs["checked"].(workloads.EvalReport)
		b := ks.Metrics[i].Outputs["checked"].(workloads.EvalReport)
		if a.Metrics["accuracy"] != b.Metrics["accuracy"] {
			t.Fatalf("iteration %d: accuracy %v vs %v (Theorem 1 violated)",
				i, a.Metrics["accuracy"], b.Metrics["accuracy"])
		}
	}
}

func TestRunSeriesStateCountsRecorded(t *testing.T) {
	wl, _ := NewWorkload("census", paperScale, 1)
	res, err := RunSeries(context.Background(), wl, HelixOpt, Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	m0 := res.Metrics[0]
	if m0.States[core.StateCompute] == 0 {
		t.Fatal("iteration 0 should compute nodes")
	}
	m1 := res.Metrics[1]
	total := m1.States[core.StateCompute] + m1.States[core.StateLoad] + m1.States[core.StatePrune]
	if total == 0 {
		t.Fatal("iteration 1 recorded no states")
	}
	if m1.States[core.StatePrune] == 0 && m1.States[core.StateLoad] == 0 {
		t.Fatal("iteration 1 should reuse something (load or prune)")
	}
}

// TestMemorySampling: a series run with Config.SampleMemory reports the
// heap its Run sampled, the peak at or above the average and the average
// above zero.
func TestMemorySampling(t *testing.T) {
	wl, err := NewWorkload("census", paperScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSeries(context.Background(), wl, HelixOpt, Config{Iterations: 1, SampleMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Metrics[0]; m.AvgMemBytes == 0 || m.PeakMemBytes < m.AvgMemBytes {
		t.Fatalf("heap peak %d, avg %d: want peak ≥ avg > 0", m.PeakMemBytes, m.AvgMemBytes)
	}
}

// failingWorkload is one iteration whose only operator fails.
type failingWorkload struct{}

func (failingWorkload) Name() string                           { return "failing" }
func (failingWorkload) Sequence() []core.Component             { return []core.Component{core.DPR} }
func (failingWorkload) Mutate(iteration int, c core.Component) {}
func (failingWorkload) Build() *helix.Workflow {
	wf := helix.New("failing")
	wf.Source("boom", "v1", func(context.Context, []helix.Value) (helix.Value, error) {
		return nil, errors.New("boom")
	}).IsOutput()
	return wf
}

// TestFailedRunStopsMemSampler: a series whose Run fails stops the heap
// sampler it started for that Run, instead of leaving it ticking, and
// reading the heap's statistics, for the life of the process.
func TestFailedRunStopsMemSampler(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunSeries(context.Background(), failingWorkload{}, HelixOpt, Config{SampleMemory: true}); err == nil {
		t.Fatal("a failing operator did not fail the series")
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed series, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
