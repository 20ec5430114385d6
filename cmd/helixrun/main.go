// Command helixrun drives one of the paper's evaluation workflows
// through an iterative development session and prints, per iteration,
// the optimizer's decisions and timings — a command-line view of the
// workflow lifecycle in paper Figure 2.
//
// Usage:
//
//	helixrun -workload census                    # HELIX OPT, paper schedule
//	helixrun -workload genomics -system helix-am # always-materialize
//	helixrun -workload nlp -iters 3 -v           # per-operator detail
//	helixrun -workload census -explain           # per-node decision table
//	helixrun -paper -cost 10                     # the paper's tables, model time
//
// Workloads: census, census10x, genomics, nlp, mnist.
// Systems: helix-opt, helix-am, helix-nm, keystoneml, deepdive.
//
// With -explain, each iteration first prints the optimizer's plan — the
// per-node decision table from Plan.Explain(): state, costs, projected
// C(n), and the rationale for every Load/Compute/Prune choice — and then
// executes it, so the projected plan can be compared against the realized
// timings that follow.
//
// With -progress, each iteration streams the engine's structured run
// events live — the plan decision with its cache outcome, every
// operator's start and retirement with measured seconds and
// materialization outcome, the flush barrier, and completion — instead
// of going silent until the end-of-iteration table row.
//
// With -paper, helixrun runs internal/sim's paper suite instead of one
// series — every (workload, system) pair Figures 5–10 and the ablations
// read, once each, at -scale/-cost/-seed/-iters — and prints the paper's
// tables in model seconds (internal/sim's model clock), Figure 10's
// measured heap included. At -cost 10 with the other defaults the output
// is internal/sim/testdata/paper.golden plus Figure 10.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"helix"
	"helix/internal/core"
	"helix/internal/sim"
	"helix/internal/workloads"
)

// flags is the parsed command line.
type flags struct {
	workload, system, dir, tenant                   string
	scale, cost, iters, parallelism                 int
	seed                                            int64
	shared, writeBehind, explain, progress, verbose bool
	paper                                           bool
}

// validate rejects flag combinations that would silently do nothing.
func (f *flags) validate() error {
	if f.tenant != "" && !f.shared {
		return fmt.Errorf("-tenant %s needs -shared: a private store keeps no per-tenant accounting", f.tenant)
	}
	if f.shared && f.dir == "" {
		return errors.New("-shared needs -dir: a store in a temporary directory is shared with nobody")
	}
	return nil
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "census", "workload to run (census|census10x|genomics|nlp|mnist)")
	flag.StringVar(&f.system, "system", "helix-opt", "system to model (helix-opt|helix-am|helix-nm|keystoneml|deepdive)")
	flag.IntVar(&f.scale, "scale", 1, "workload size multiplier")
	flag.IntVar(&f.cost, "cost", 40, "NLP parse cost factor")
	flag.Int64Var(&f.seed, "seed", 1, "data generation seed")
	flag.IntVar(&f.iters, "iters", 0, "iterations to run (0 = paper schedule)")
	flag.StringVar(&f.dir, "dir", "", "materialization directory (default: temp, removed at exit)")
	flag.BoolVar(&f.shared, "shared", false, "attach to a shared content-addressed store at -dir (required): artifacts publish once per chain signature and are reused by any session (or process) sharing the directory")
	flag.StringVar(&f.tenant, "tenant", "", "tenant label for shared-store byte accounting (only with -shared)")
	flag.BoolVar(&f.writeBehind, "writebehind", false, "materialize via the background writer pool instead of the paper-faithful inline write")
	flag.IntVar(&f.parallelism, "parallelism", 0, "scheduler worker-pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&f.explain, "explain", false, "print the optimizer's per-node decision table before each iteration")
	flag.BoolVar(&f.progress, "progress", false, "stream per-node live progress from the run's event stream")
	flag.BoolVar(&f.verbose, "v", false, "print per-operator states")
	flag.BoolVar(&f.paper, "paper", false, "print the paper's tables (Table 2, Figures 5-10, ablations) in model seconds at -scale/-cost/-seed/-iters instead of running one series")
	flag.Parse()

	err := f.validate()
	if f.paper && err == nil {
		// The suite fixes its own workloads, systems and stores: every flag
		// but the scale ones would be dropped silently.
		flag.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "paper", "scale", "cost", "seed", "iters":
			default:
				err = fmt.Errorf("-paper takes only -scale, -cost, -seed and -iters, not -%s", fl.Name)
			}
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "helixrun:", err)
		flag.Usage()
		os.Exit(2)
	}
	if f.paper {
		err = paper(f)
	} else {
		err = run(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "helixrun:", err)
		os.Exit(1)
	}
}

// progressObserver renders the run's structured events as live progress
// lines: per-node states as they happen instead of only the
// end-of-iteration table.
func progressObserver(ev helix.RunEvent) {
	switch e := ev.(type) {
	case helix.PlanEvent:
		fmt.Printf("      plan  cache=%-7s compute=%d load=%d prune=%d projected=%.3fs plan=%.4fs\n",
			e.Outcome, e.Compute, e.Load, e.Prune, e.ProjectedSeconds, e.PlanTime.Seconds())
	case helix.NodeEvent:
		if e.Phase == helix.NodeStarted {
			fmt.Printf("      start %-20s %v\n", e.Name, e.State)
		} else {
			mat := ""
			if e.Materialized {
				mat = "  mat"
			}
			fmt.Printf("      done  %-20s %v %8.3fs%s\n", e.Name, e.State, e.Seconds, mat)
		}
	case helix.FlushEvent:
		fmt.Printf("      flush wait=%.3fs\n", e.Wait.Seconds())
	case helix.DoneEvent:
		fmt.Printf("      done  iteration %d wall=%.3fs\n", e.Iteration, e.Wall.Seconds())
	}
}

// paper prints internal/sim's paper suite at the flags' scale.
func paper(f flags) error {
	workloads.RegisterAll()
	p, err := sim.RunPaper(context.Background(), sim.PaperConfig{
		Scale:      workloads.Scale{Rows: f.scale, CostFactor: f.cost},
		Seed:       f.seed,
		Iterations: f.iters,
	})
	if err != nil {
		return err
	}
	fmt.Print(p.Tables(true))
	return nil
}

func systemByName(name string) (sim.System, error) {
	for _, s := range []sim.System{sim.HelixOpt, sim.HelixAM, sim.HelixNM, sim.KeystoneML, sim.DeepDive} {
		if s.Name == name {
			return s, nil
		}
	}
	return sim.System{}, fmt.Errorf("unknown system %q", name)
}

func run(f flags) error {
	workloads.RegisterAll()
	sys, err := systemByName(f.system)
	if err != nil {
		return err
	}
	if !sim.Supports(sys.Name, f.workload) {
		return fmt.Errorf("%s does not support the %s workflow (paper Table 2)", sys.Name, f.workload)
	}
	wl, err := sim.NewWorkload(f.workload, workloads.Scale{Rows: f.scale, CostFactor: f.cost}, f.seed)
	if err != nil {
		return err
	}
	dir := f.dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "helixrun-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	// The flag set lowers onto the same functional options the public API
	// exposes; the system preset supplies the baseline and the flags
	// append overrides (later options win).
	opts := append([]helix.Option(nil), sys.Options...)
	if f.writeBehind {
		opts = append(opts, helix.WithSyncMaterialization(false))
	}
	opts = append(opts, helix.WithParallelism(f.parallelism))
	// -shared attaches to a content-addressed store rooted at -dir: a
	// second invocation on the same directory loads this one's artifacts
	// instead of recomputing.
	var sharedStore *helix.SharedStore
	if f.shared {
		sharedStore, err = helix.OpenSharedStore(dir)
		if err != nil {
			return err
		}
		defer sharedStore.Close()
		opts = append(opts, helix.WithSharedStore(sharedStore), helix.WithTenant(f.tenant))
	}
	sess, err := helix.Open(dir, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()

	// -progress installs the observer per run (a run-scoped option), so
	// the final outputs re-run below stays quiet.
	var runOpts []helix.Option
	if f.progress {
		runOpts = append(runOpts, helix.WithObserver(progressObserver))
	}

	seq := wl.Sequence()
	iters := f.iters
	if iters <= 0 || iters > len(seq) {
		iters = len(seq)
	}
	ctx := context.Background()
	var cum float64
	warned := map[string]bool{} // nodes whose failed materialization was already reported
	fmt.Printf("workload=%s system=%s store=%s\n\n", f.workload, sys.Name, dir)
	// seconds covers the compute critical path; flush(s) is the extra wait
	// at the write-behind barrier before Run returns (0 when inline).
	// Both count toward cum — the latency the user actually observes.
	// plan(s) is the planning share of seconds, with the plan-cache
	// outcome (cold/hit) beside it.
	fmt.Println("iter  type  seconds  flush(s)    cum      plan(s)  cache     Sc  Sl  Sp   mat(s)  storage(KB)")
	var last *helix.Result
	for t := 0; t < iters; t++ {
		if t > 0 {
			if sys.DPROnly && seq[t] != core.DPR {
				fmt.Printf("stopping: %s supports only DPR iterations\n", sys.Name)
				break
			}
			wl.Mutate(t, seq[t])
		}
		wf := wl.Build()
		if f.explain {
			pl, err := sess.Plan(wf)
			if err != nil {
				return fmt.Errorf("iteration %d: plan: %w", t, err)
			}
			fmt.Println(pl.Explain())
		}
		if f.progress {
			fmt.Printf("iteration %d:\n", t)
		}
		res, err := sess.Run(ctx, wf, runOpts...)
		if err != nil {
			return fmt.Errorf("iteration %d: %w", t, err)
		}
		last = res
		cum += res.Wall.Seconds() + res.FlushWait.Seconds()
		outcome := "-"
		if res.Plan != nil {
			outcome = res.Plan.Cache.String()
		}
		fmt.Printf("%-5d %-5s %8.3f  %8.3f  %8.3f  %7.4f  %-7s  %3d %3d %3d  %6.3f  %10d\n",
			t, seq[t], res.Wall.Seconds(), res.FlushWait.Seconds(), cum,
			res.PlanTime.Seconds(), outcome,
			res.StateCounts[core.StateCompute],
			res.StateCounts[core.StateLoad],
			res.StateCounts[core.StatePrune],
			res.MatTime.Seconds(), res.StorageBytes/1024)
		if f.verbose {
			printNodes(res)
		}
		warnNodes(t, res, warned)
	}
	if sharedStore != nil {
		st := sharedStore.PlanCacheStats()
		fmt.Printf("\nshared store: artifacts=%d bytes=%d sessions=%d plan-cache hits=%d misses=%d",
			sharedStore.Artifacts(), sharedStore.StorageBytes(), sharedStore.Sessions(),
			st.Hits, st.Misses)
		if f.tenant != "" {
			fmt.Printf(" tenant[%s]=%dB", f.tenant, sharedStore.TenantBytes(f.tenant))
		}
		fmt.Println()
	}
	fmt.Printf("\noutputs of the final iteration:\n")
	for _, name := range slices.Sorted(maps.Keys(last.Values)) {
		fmt.Printf("  %s = %v\n", name, last.Values[name])
	}
	return nil
}

// warnNodes prints a warning line on stderr for each operator whose result
// the policy chose to store and the store could not take (once: the engine
// does not try that type again), and for each planned load that failed
// (the artifact was dropped and the operator computed instead). The
// series still runs either way; the operator is recomputed where it would
// have been loaded.
func warnNodes(iter int, res *helix.Result, warned map[string]bool) {
	for _, name := range slices.Sorted(maps.Keys(res.Nodes)) {
		n := res.Nodes[name]
		if n.LoadErr != nil {
			fmt.Fprintf(os.Stderr, "helixrun: warning: iteration %d: node %s: %v\n", iter, name, n.LoadErr)
		}
		if n.MatErr != nil && !warned[name] {
			warned[name] = true
			fmt.Fprintf(os.Stderr, "helixrun: warning: iteration %d: %v\n", iter, n.MatErr)
		}
	}
}

// printNodes prints one row per operator; a row whose planned load failed
// ends in "load failed".
func printNodes(res *helix.Result) {
	for _, name := range slices.Sorted(maps.Keys(res.Nodes)) {
		n := res.Nodes[name]
		mark := ""
		if n.LoadErr != nil {
			mark = "  load failed"
		}
		fmt.Printf("        %-20s %-3s %-4v %8.3fs%s\n", name, n.Component, n.State, n.Seconds, mark)
	}
}
