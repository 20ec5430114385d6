package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"helix"
	"helix/internal/core"
	"helix/internal/workloads"
)

// PaperConfig selects the scale the paper suite runs at.
type PaperConfig struct {
	Scale workloads.Scale
	Seed  int64
	// Iterations caps every series; 0 runs each workload's paper schedule.
	Iterations int
}

// Paper is every series behind the paper's Figures 5–10 and the
// ablations, each (workload, system) pair run once on model time; the
// figures are views of that one set. Build it with RunPaper.
type Paper struct {
	Config PaperConfig
	series map[paperKey]*SeriesResult
}

type paperKey struct{ workload, system string }

// The suite's workloads: the four evaluation workflows in paper order,
// Figure 7a's 10× census, and Figure 7b's census on simulated clusters
// ("census/<n>w"). The paper runs 7b on the 10× data; the model has no
// multi-worker speedup to show there (its charge is per byte, serial), so
// what 7b can show under it — the per-worker barrier a cluster pays on
// every parallel operation — is run at 1×, where it costs the host a
// tenth as much.
const (
	census, genomics, nlp, mnist = "census", "genomics", "nlp", "mnist"
	census10x                    = "census10x"
)

func figureWorkloads() []string { return []string{census, genomics, nlp, mnist} }

func clusterWorkers() []int { return []int{2, 4, 8} }

func clusterWorkload(workers int) string { return fmt.Sprintf("census/%dw", workers) }

// The ablation variants of HELIX OPT, all on census: Algorithm 2's
// threshold (the paper's is 2, HelixOpt itself), program slicing off, and
// the survey-weighted amortized OMP.
func ablationThresholds() []float64 { return []float64{1, 2, 4, 8} }

func thresholdSystem(th float64) System {
	if th == 2 {
		return HelixOpt
	}
	return System{Name: fmt.Sprintf("helix-opt/th%g", th), Options: HelixOpt.options(helix.WithOMPThreshold(th))}
}

func noPruningSystem() System {
	return System{Name: "helix-opt/no-pruning", Options: HelixOpt.options(helix.WithPruning(false))}
}

func amortizedSystem() System {
	return System{Name: "helix-opt/amortized", Options: HelixOpt.options(
		helix.WithPolicy(helix.PolicyOptAmortized), helix.WithDomain(census))}
}

// suiteEntry is one series of the suite: a workload label and a system.
type suiteEntry struct {
	workload string
	system   System
}

// paperSuite lists every series the tables read, each once.
func paperSuite() []suiteEntry {
	var out []suiteEntry
	for _, wl := range figureWorkloads() {
		for _, sys := range []System{HelixOpt, HelixAM, HelixNM, KeystoneML, DeepDive} {
			// Paper §6.6: HELIX AM did not complete on NLP and MNIST;
			// Figures 9(e),(f) show only OPT and NM.
			am := sys.Name == HelixAM.Name && (wl == nlp || wl == mnist)
			if Supports(sys.Name, wl) && !am {
				out = append(out, suiteEntry{wl, sys})
			}
		}
	}
	for _, wl := range []string{census10x, clusterWorkload(2), clusterWorkload(4), clusterWorkload(8)} {
		out = append(out, suiteEntry{wl, HelixOpt}, suiteEntry{wl, KeystoneML})
	}
	for _, th := range ablationThresholds() {
		if th != 2 {
			out = append(out, suiteEntry{census, thresholdSystem(th)})
		}
	}
	return append(out, suiteEntry{census, noPruningSystem()}, suiteEntry{census, amortizedSystem()})
}

// newPaperWorkload builds a suite workload by label.
func newPaperWorkload(label string, cfg PaperConfig) (workloads.Workload, error) {
	for _, w := range clusterWorkers() {
		if label == clusterWorkload(w) {
			return workloads.NewCensusCluster(cfg.Scale, cfg.Seed, w), nil
		}
	}
	return NewWorkload(label, cfg.Scale, cfg.Seed)
}

// RunPaper runs every series of the suite once. HELIX OPT's series of the
// four figure workloads sample the heap — Figure 10's columns — and run
// first, one at a time, so the heap they sample is their own. The rest
// run GOMAXPROCS at a time: each series bills its own model clock, so
// running beside another changes none of its numbers.
func RunPaper(ctx context.Context, cfg PaperConfig) (*Paper, error) {
	p := &Paper{Config: cfg, series: make(map[paperKey]*SeriesResult)}
	runEntry := func(e suiteEntry, sample bool) (*SeriesResult, error) {
		wl, err := newPaperWorkload(e.workload, cfg)
		if err != nil {
			return nil, err
		}
		return RunSeries(ctx, wl, e.system, Config{Iterations: cfg.Iterations, SampleMemory: sample})
	}
	var rest []suiteEntry
	for _, e := range paperSuite() {
		if e.system.Name != HelixOpt.Name || !slices.Contains(figureWorkloads(), e.workload) {
			rest = append(rest, e)
			continue
		}
		res, err := runEntry(e, true)
		if err != nil {
			return nil, err
		}
		p.series[paperKey{e.workload, e.system.Name}] = res
	}

	results := make([]*SeriesResult, len(rest))
	errs := make([]error, len(rest))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if errs[i] = ctx.Err(); errs[i] == nil {
					results[i], errs[i] = runEntry(rest[i], false)
				}
			}
		}()
	}
	for i := range rest {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, e := range rest {
		p.series[paperKey{e.workload, e.system.Name}] = results[i]
	}
	return p, nil
}

// Series returns the series of one (workload, system) pair, or nil when
// the suite has none.
func (p *Paper) Series(workload, system string) *SeriesResult {
	return p.series[paperKey{workload, system}]
}

// Total is a series' cumulative model seconds (0 when absent).
func (p *Paper) Total(workload, system string) float64 {
	if s := p.Series(workload, system); s != nil {
		return s.TotalSeconds()
	}
	return 0
}

// FinalStorage is a series' store usage after its last iteration.
func (p *Paper) FinalStorage(workload, system string) int64 {
	s := p.Series(workload, system)
	if s == nil || len(s.Metrics) == 0 {
		return 0
	}
	return s.Metrics[len(s.Metrics)-1].StorageBytes
}

// fractions returns the S_p/S_l/S_c fractions of a state count (Figure 8).
func fractions(states map[core.State]int) (sp, sl, sc float64) {
	total := states[core.StatePrune] + states[core.StateLoad] + states[core.StateCompute]
	if total == 0 {
		return 0, 0, 0
	}
	t := float64(total)
	return float64(states[core.StatePrune]) / t,
		float64(states[core.StateLoad]) / t,
		float64(states[core.StateCompute]) / t
}

// Tables renders the paper's tables in paper order. Everything but
// Figure 10 is model time and storage, identical on every run and host;
// heap=false leaves Figure 10's measured columns out, which is the form
// testdata/paper.golden pins.
func (p *Paper) Tables(heap bool) string {
	var b strings.Builder
	c := p.Config
	fmt.Fprintf(&b, "HELIX paper tables — model seconds (scale %d, cost %d, seed %d, iters %d)\n\n",
		c.Scale.Rows, c.Scale.CostFactor, c.Seed, c.Iterations)
	p.table2(&b)
	p.fig5(&b)
	p.fig6(&b)
	p.fig7(&b)
	p.fig8(&b)
	p.fig9(&b)
	if heap {
		p.fig10(&b)
	} else {
		b.WriteString("Figure 10 — heap is measured, not modelled: helixrun -paper prints it\n\n")
	}
	p.ablations(&b)
	return b.String()
}

func (p *Paper) table2(b *strings.Builder) {
	b.WriteString("Table 2 — system support\n")
	systems := []string{HelixOpt.Name, KeystoneML.Name, DeepDive.Name}
	fmt.Fprintf(b, "%-10s %-11s %-11s %s\n", "workload", systems[0], systems[1], systems[2])
	for _, wl := range figureWorkloads() {
		var mark [3]string
		for i, sys := range systems {
			mark[i] = "-"
			if Supports(sys, wl) {
				mark[i] = "yes"
			}
		}
		fmt.Fprintf(b, "%-10s %-11s %-11s %s\n", wl, mark[0], mark[1], mark[2])
	}
	b.WriteByte('\n')
}

// cumulativeTable writes one row per iteration with each series'
// cumulative seconds ("-" once a series has stopped).
func cumulativeTable(b *strings.Builder, series []*SeriesResult) {
	fmt.Fprintf(b, "%-6s %-5s", "iter", "type")
	n := 0
	for _, s := range series {
		fmt.Fprintf(b, " %12s", s.System)
		n = max(n, len(s.Metrics))
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "%-6d %-5s", i, series[0].Metrics[i].Type)
		for _, s := range series {
			if i < len(s.Metrics) {
				fmt.Fprintf(b, " %12.4f", s.Cumulative()[i])
			} else {
				fmt.Fprintf(b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
}

func (p *Paper) present(workload string, systems ...System) []*SeriesResult {
	var out []*SeriesResult
	for _, sys := range systems {
		if s := p.Series(workload, sys.Name); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (p *Paper) fig5(b *strings.Builder) {
	for _, wl := range figureWorkloads() {
		fmt.Fprintf(b, "Figure 5 — %s: cumulative run time (s)\n", wl)
		cumulativeTable(b, p.present(wl, HelixOpt, KeystoneML, DeepDive))
		// Figure 5's headline ratio: the other system's cumulative time
		// over HELIX OPT's.
		for _, vs := range []string{KeystoneML.Name, DeepDive.Name} {
			if other := p.Total(wl, vs); other > 0 {
				fmt.Fprintf(b, "  helix-opt speedup vs %s: %.2f×\n", vs, other/p.Total(wl, HelixOpt.Name))
			}
		}
		b.WriteByte('\n')
	}
}

func (p *Paper) fig6(b *strings.Builder) {
	for _, wl := range figureWorkloads() {
		s := p.Series(wl, HelixOpt.Name)
		fmt.Fprintf(b, "Figure 6 — %s: HELIX OPT run time breakdown (s)\n", wl)
		fmt.Fprintf(b, "%-6s %-5s %10s %10s %10s %10s\n", "iter", "type", "DPR", "L/I", "PPR", "Mat")
		for _, m := range s.Metrics {
			fmt.Fprintf(b, "%-6d %-5s %10.4f %10.4f %10.4f %10.4f\n",
				m.Iteration, m.Type, m.Breakdown[core.DPR], m.Breakdown[core.LI], m.Breakdown[core.PPR], m.MatSeconds)
		}
		b.WriteByte('\n')
	}
}

func (p *Paper) fig7(b *strings.Builder) {
	row := func(label string, wl string) {
		fmt.Fprintf(b, "%-12s %12.4f %12.4f\n", label, p.Total(wl, HelixOpt.Name), p.Total(wl, KeystoneML.Name))
	}
	b.WriteString("Figure 7a — dataset-size scaling: cumulative run time (s)\n")
	fmt.Fprintf(b, "%-12s %12s %12s\n", "workload", HelixOpt.Name, KeystoneML.Name)
	row(census, census)
	row(census10x, census10x)
	b.WriteString("\nFigure 7b — cluster scaling on census: cumulative run time (s)\n")
	fmt.Fprintf(b, "%-12s %12s %12s\n", "workers", HelixOpt.Name, KeystoneML.Name)
	for _, w := range clusterWorkers() {
		row(fmt.Sprint(w), clusterWorkload(w))
	}
	b.WriteByte('\n')
}

func (p *Paper) fig8(b *strings.Builder) {
	for _, wl := range []string{census, genomics} {
		for _, s := range p.present(wl, HelixOpt, HelixAM) {
			fmt.Fprintf(b, "Figure 8 — %s / %s: fraction of nodes per state\n", wl, s.System)
			fmt.Fprintf(b, "%-6s %-5s %8s %8s %8s\n", "iter", "type", "Sp", "Sl", "Sc")
			for _, m := range s.Metrics {
				sp, sl, sc := fractions(m.States)
				fmt.Fprintf(b, "%-6d %-5s %8.2f %8.2f %8.2f\n", m.Iteration, m.Type, sp, sl, sc)
			}
			b.WriteByte('\n')
		}
	}
}

func (p *Paper) fig9(b *strings.Builder) {
	for _, wl := range figureWorkloads() {
		series := p.present(wl, HelixOpt, HelixAM, HelixNM)
		fmt.Fprintf(b, "Figure 9 — %s: cumulative run time (s)\n", wl)
		cumulativeTable(b, series)
		if wl == census || wl == genomics {
			fmt.Fprintf(b, "Figure 9 — %s: storage (KB) per iteration\n", wl)
			fmt.Fprintf(b, "%-6s %12s %12s\n", "iter", HelixOpt.Name, HelixAM.Name)
			opt, am := p.Series(wl, HelixOpt.Name), p.Series(wl, HelixAM.Name)
			for i := range opt.Metrics {
				fmt.Fprintf(b, "%-6d %12d %12d\n", i, opt.Metrics[i].StorageBytes/1024, am.Metrics[i].StorageBytes/1024)
			}
		}
		b.WriteByte('\n')
	}
}

func (p *Paper) fig10(b *strings.Builder) {
	for _, wl := range figureWorkloads() {
		s := p.Series(wl, HelixOpt.Name)
		fmt.Fprintf(b, "Figure 10 — %s: HELIX OPT heap (MB, measured)\n", wl)
		fmt.Fprintf(b, "%-6s %-5s %10s %10s\n", "iter", "type", "peak", "avg")
		for _, m := range s.Metrics {
			fmt.Fprintf(b, "%-6d %-5s %10.1f %10.1f\n",
				m.Iteration, m.Type, float64(m.PeakMemBytes)/(1<<20), float64(m.AvgMemBytes)/(1<<20))
		}
		b.WriteByte('\n')
	}
}

func (p *Paper) ablations(b *strings.Builder) {
	b.WriteString("Ablation — Algorithm 2's threshold on census: cumulative run time (s), storage (KB)\n")
	for _, th := range ablationThresholds() {
		sys := thresholdSystem(th).Name
		fmt.Fprintf(b, "  threshold %g×: %10.4f %10d\n", th, p.Total(census, sys), p.FinalStorage(census, sys)/1024)
	}
	fmt.Fprintf(b, "Ablation — program slicing on census: on %.4f s, off %.4f s\n",
		p.Total(census, HelixOpt.Name), p.Total(census, noPruningSystem().Name))
	am := amortizedSystem().Name
	fmt.Fprintf(b, "Ablation — amortized OMP on census: streaming %.4f s / %d KB, amortized %.4f s / %d KB\n",
		p.Total(census, HelixOpt.Name), p.FinalStorage(census, HelixOpt.Name)/1024,
		p.Total(census, am), p.FinalStorage(census, am)/1024)
}
