// Command benchmark is the repository's one measuring stick: four
// iteration-schedule workloads, seven end-to-end metrics, and per-layer
// attribution taken from outside the program. See README.md.
//
// It drives the system the way its user does — a closed loop with one
// client: one developer whose next Session.Run starts when the previous
// one returns, in sessions opened with helix.Open(tmpdir) and default
// options.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"helix/internal/workloads"
)

// maxProcs is GOMAXPROCS for every run, recorded in the result. It is 1,
// not ISSUE 11's min(nproc, 4): with two Ps this host's spreads doubled to
// tripled (README.md, "Why one P"), so gains from parallelism are outside
// this benchmark's scope.
const maxProcs = 1

// specFile holds the bounds -compare applies; the program is run from the
// repository root.
const specFile = "BENCHMARK.json"

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run only this workload and print the driver's result line last")
		seed    = flag.Int64("seed", 1, "seed of the input generators and the bench-owned DAG builders")
		seconds = flag.Float64("seconds", 15, "how long each workload's timed section measures")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
		quick   = flag.Bool("quick", false, "tiny scales, one rep, one set-up: a smoke run, not a measurement")
		out     = flag.String("out", "benchmark/out/result.json", "result file; trace files are written beside it")
		compare = flag.Bool("compare", false, "compare two sets of result files: -compare a.json[,a2.json…] b.json[,…]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare wants two arguments, got %d", flag.NArg()))
		}
		return runCompare(os.Stdout, specFile, flag.Arg(0), flag.Arg(1))
	}

	runtime.GOMAXPROCS(maxProcs)
	workloads.RegisterAll()
	var selected []workload
	for _, wl := range allWorkloads {
		if *name == "" || *name == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return fatal(err)
	}
	scratch, err := newScratch()
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(scratch)

	env := newEnvelope(*seed, *seconds, *quick)
	failed := 0
	for _, wl := range selected {
		res, err := runWorkload(context.Background(), wl, runConfig{
			seed: *seed, seconds: *seconds, trace: *trace, quick: *quick, faultStep: -1,
			outDir: filepath.Dir(*out), scratch: scratch,
		})
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		env.Workloads = append(env.Workloads, *res)
		failed += res.OpsFailed
		fmt.Printf("%s: reps=%d traced_reps=%d ops_attempted=%d ops_failed=%d\n", res.Name, res.Reps, res.TracedReps, res.OpsAttempted, res.OpsFailed)
		printMetrics(os.Stdout, "end to end", res.EndToEnd)
		printMetrics(os.Stdout, "per layer", res.PerLayer)
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fatal(err)
	}
	if *name != "" {
		fmt.Println(driverLine(&env.Workloads[0]))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

type runConfig struct {
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	faultStep int
	outDir    string
	scratch   string // parent of every session directory (newScratch)
}

// runWorkload is the run protocol for one workload: set-up (repeated,
// so setup_s is a median), one discarded warm-up rep, timed reps with
// tracing off, then traced reps and the direct layer measurements.
func runWorkload(ctx context.Context, wl workload, cfg runConfig) (*workloadResult, error) {
	h := &harness{wl: wl, seed: cfg.seed, quick: cfg.quick, ctx: ctx, faultStep: cfg.faultStep, scratch: cfg.scratch}
	rounds, minReps := setupRounds, 3
	if cfg.quick {
		rounds, minReps, cfg.seconds = 1, 1, 0
	}
	if cfg.trace == 1 {
		rounds = 1 // setup_s is an end-to-end metric; one set-up serves the traced run
	}
	for i := 0; i < rounds; i++ {
		if err := h.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	if _, err := h.rep(false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res := &workloadResult{Name: wl.name, Why: wl.why}

	window := cfg.seconds
	if cfg.trace == 1 {
		window /= 2 // the other half goes to the traced reps
	}
	untraced, err := h.measure(window, minReps, false)
	if err != nil {
		return nil, err
	}
	res.Reps = len(untraced)
	if cfg.trace != 1 {
		res.EndToEnd = h.endToEnd(untraced)
	}
	if cfg.trace != 0 {
		h.tr = newTracer()
		h.keep = true
		defer func() { os.RemoveAll(h.kept) }()
		traced, err := h.measure(cfg.seconds/2, min(minReps, 2), true)
		if err != nil {
			return nil, err
		}
		h.keep = false
		res.TracedReps = len(traced)
		res.PerLayer = h.repLayers(untraced, traced)
		micro, err := h.layerMicro()
		if err != nil {
			return nil, fmt.Errorf("layer measurements: %w", err)
		}
		if err := sessionStoreStats(micro, h.kept); err != nil {
			return nil, fmt.Errorf("session store: %w", err)
		}
		for k, v := range micro {
			res.PerLayer[k] = v
		}
		res.TraceFile = filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
		if err := h.tr.writeChrome(res.TraceFile); err != nil {
			return nil, err
		}
		res.TraceSelfS = h.tr.selfByCat()
	}
	res.OpsAttempted, res.OpsFailed = h.attempted, h.failed
	return res, nil
}

// driverLine is the single JSON object the driver reads from the last
// line of standard output.
func driverLine(res *workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, ms := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for name, m := range ms {
			metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.OpsFailed == 0,
		"attempted": res.OpsAttempted,
		"failed":    res.OpsFailed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	return string(line)
}
