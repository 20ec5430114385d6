// Package sim simulates the paper's experimental methodology (§6.3):
// driving a workload through its iteration sequence under each compared
// system — HELIX OPT / AM / NM, KeystoneML, and DeepDive — and collecting
// the per-iteration metrics behind every figure of §6 (cumulative run
// time, component breakdown, state fractions, storage, memory). RunPaper
// runs every series the figures need once and renders the paper's tables.
//
// Every series runs on model time (model.go): a clock that moves only by
// what is billed, so the figures — and the claims the tests make about
// them — are exact and independent of the host.
//
// KeystoneML and DeepDive are modeled as execution policies over the same
// workflow DAG, isolating exactly the materialization/reuse strategy the
// paper's comparison targets: KeystoneML materializes nothing and never
// reuses (its optimizer handles only one-shot execution); DeepDive
// materializes everything but performs no automatic cross-iteration reuse,
// and its Python/shell data preprocessing runs ~2× slower than Spark's
// (paper §6.5.2).
package sim

import (
	"context"
	"fmt"
	"os"
	"time"

	"helix"
	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/workloads"
)

// System identifies one of the compared systems (paper §6.1).
type System struct {
	// Name is the display name used in benchmark output.
	Name string
	// Options are the functional options that configure a session to
	// model the system.
	Options []helix.Option
	// DPROnly restricts the system to DPR iterations: DeepDive supports
	// only DPR changes (paper §6.5.1), so its series stops at the first
	// non-DPR iteration.
	DPROnly bool
	// DPRSlowdown and LISlowdown multiply the model's charge for DPR and
	// L/I operators (paper §6.5.2); 0 or 1 bills the charge as is.
	DPRSlowdown, LISlowdown float64
}

// options returns the system's options followed by extra, in a fresh
// slice.
func (s System) options(extra ...helix.Option) []helix.Option {
	return append(append([]helix.Option(nil), s.Options...), extra...)
}

// PaperDiskBytesPerSec is the simulated disk throughput of the paper's
// environment: 170 MB/s HDD for both reads and writes (§6.3).
const PaperDiskBytesPerSec = 170e6

// The compared systems. DeepDive's 2× DPR slowdown models its Python and
// shell preprocessing versus Spark (paper §6.5.2: "the 2× reduction
// between HELIX OPT and DeepDive is due to the fact that DeepDive does
// data preprocessing with Python and shell scripts, while HELIX OPT uses
// Spark"). Both slowdowns are part of the model's bill (model.go), so
// they exist only on the model clock.
//
// Every system runs on the model clock, where the engine writes each
// materialization inline: each system the paper measures serializes and
// writes intermediates on its execution critical path, and the
// evaluation's comparative shapes (e.g. AM losing to OPT precisely because
// it pays materialization inline, §6.6) depend on that cost being on the
// run's wall. The write-behind pipeline — this reproduction's own
// improvement — overlaps real work with real writes, which a serial model
// cannot show; exec.TestWriteBehindExcludesMatFromWall asserts it on the
// host's clock.
var (
	HelixOpt = System{Name: "helix-opt", Options: []helix.Option{
		helix.WithPolicy(helix.PolicyOpt),
		helix.WithDiskThroughput(PaperDiskBytesPerSec)}}
	HelixAM = System{Name: "helix-am", Options: []helix.Option{
		helix.WithPolicy(helix.PolicyAlways),
		helix.WithDiskThroughput(PaperDiskBytesPerSec)}}
	HelixNM = System{Name: "helix-nm", Options: []helix.Option{
		helix.WithPolicy(helix.PolicyNever),
		helix.WithDiskThroughput(PaperDiskBytesPerSec)}}
	// KeystoneML's L/I runs ~2× long: its caching optimizer fails to
	// cache the training data for learning (paper §6.5.2).
	KeystoneML = System{Name: "keystoneml", Options: []helix.Option{
		helix.WithPolicy(helix.PolicyNever), helix.WithReuse(false),
		helix.WithDiskThroughput(PaperDiskBytesPerSec)},
		LISlowdown: 2}
	DeepDive = System{Name: "deepdive", Options: []helix.Option{
		helix.WithPolicy(helix.PolicyAlways), helix.WithReuse(false),
		helix.WithDiskThroughput(PaperDiskBytesPerSec)},
		DPROnly: true, DPRSlowdown: 2}
)

// Supports reproduces Table 2's support matrix: which systems can run
// which workloads. KeystoneML cannot express the structured-prediction IE
// workflow; DeepDive cannot express the custom-model genomics and MNIST
// workflows (paper §6.5.1).
func Supports(system, workload string) bool {
	switch system {
	case "keystoneml":
		return workload != "nlp"
	case "deepdive":
		return workload == "census" || workload == "nlp"
	default:
		return true
	}
}

// IterationMetrics captures one iteration's outcome for one system.
type IterationMetrics struct {
	Iteration int
	Type      core.Component
	// Seconds is the iteration's run time in model seconds (includes
	// materialization time, as the paper measures).
	Seconds float64
	// Breakdown is per-component operator time (Figure 6).
	Breakdown map[core.Component]float64
	// MatSeconds is materialization overhead (Figure 6, gray).
	MatSeconds float64
	// StorageBytes is cumulative store usage after the iteration
	// (Figure 9c,d).
	StorageBytes int64
	// PeakMemBytes/AvgMemBytes are heap statistics (Figure 10), sampled
	// on the host: the one measurement that is not modelled.
	PeakMemBytes, AvgMemBytes uint64
	// States counts live nodes per execution state (Figure 8).
	States map[core.State]int
	// Outputs holds the workflow's output values (correctness checks).
	Outputs map[string]any
}

// SeriesResult is a full multi-iteration run of one workload under one
// system.
type SeriesResult struct {
	Workload string
	System   string
	Metrics  []IterationMetrics
}

// Cumulative returns the running sum of iteration times.
func (s *SeriesResult) Cumulative() []float64 {
	out := make([]float64, len(s.Metrics))
	var total float64
	for i, m := range s.Metrics {
		total += m.Seconds
		out[i] = total
	}
	return out
}

// TotalSeconds returns the cumulative run time over all iterations.
func (s *SeriesResult) TotalSeconds() float64 {
	var total float64
	for _, m := range s.Metrics {
		total += m.Seconds
	}
	return total
}

// Config controls a simulated session.
type Config struct {
	// Iterations caps the number of iterations; 0 runs the workload's
	// full sequence.
	Iterations int
	// SampleMemory samples the heap around each iteration's Run
	// (Figure 10); costs a goroutine while the Run is in flight.
	SampleMemory bool
}

// NewWorkload constructs a fresh workload instance by name at the given
// scale. Fresh instances matter: mutations are stateful.
func NewWorkload(name string, scale workloads.Scale, seed int64) (workloads.Workload, error) {
	switch name {
	case "census":
		return workloads.NewCensus(scale, seed), nil
	case "census10x":
		return workloads.NewCensus10x(scale, seed), nil
	case "genomics":
		return workloads.NewGenomics(scale, seed), nil
	case "nlp":
		return workloads.NewIE(scale, seed), nil
	case "mnist":
		return workloads.NewMNIST(scale, seed), nil
	default:
		return nil, fmt.Errorf("sim: unknown workload %q", name)
	}
}

// RunSeries drives wl through its iteration sequence under the given
// system on a fresh model clock, returning per-iteration metrics.
// Iteration 0 runs the initial workflow; iteration t ≥ 1 first applies the
// sequence's mutation for t.
func RunSeries(ctx context.Context, wl workloads.Workload, sys System, cfg Config) (*SeriesResult, error) {
	dir, err := os.MkdirTemp("", "helix-sim-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx = clock.With(ctx, newModel(sys))
	sess, err := helix.Open(dir, sys.Options...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	seq := wl.Sequence()
	iters := cfg.Iterations
	if iters <= 0 || iters > len(seq) {
		iters = len(seq)
	}
	res := &SeriesResult{Workload: wl.Name(), System: sys.Name}
	for t := 0; t < iters; t++ {
		if t > 0 {
			if sys.DPROnly && seq[t] != core.DPR {
				break // DeepDive cannot express this iteration
			}
			wl.Mutate(t, seq[t])
		}
		var sampler *memSampler
		if cfg.SampleMemory {
			sampler = startMemSampler(5 * time.Millisecond)
		}
		out, err := sess.Run(ctx, wl.Build())
		var peak, avg uint64
		if sampler != nil { // stopped on every path out, the error path included
			peak, avg = sampler.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%s iteration %d: %w", wl.Name(), sys.Name, t, err)
		}
		m := IterationMetrics{
			Iteration:    t,
			Type:         seq[t],
			Seconds:      out.Wall.Seconds(),
			Breakdown:    make(map[core.Component]float64, 3),
			MatSeconds:   out.MatTime.Seconds(),
			StorageBytes: out.StorageBytes,
			PeakMemBytes: peak,
			AvgMemBytes:  avg,
			States: map[core.State]int{
				core.StateCompute: out.StateCounts[core.StateCompute],
				core.StateLoad:    out.StateCounts[core.StateLoad],
				core.StatePrune:   out.StateCounts[core.StatePrune],
			},
			Outputs: out.Values,
		}
		for comp, d := range out.Breakdown {
			m.Breakdown[comp] = d.Seconds()
		}
		res.Metrics = append(res.Metrics, m)
	}
	return res, nil
}
