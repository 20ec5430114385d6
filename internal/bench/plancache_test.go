package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/exec"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// benchOutPath is where the plan/scheduler benchmark emitter writes its
// JSON summary; override with HELIX_BENCH_OUT. CI uploads the file as an
// artifact so cold-vs-cached and fifo-vs-critpath deltas are tracked per
// PR.
func benchOutPath() string {
	if p := os.Getenv("HELIX_BENCH_OUT"); p != "" {
		return p
	}
	return "BENCH_plan.json"
}

// recordBenchMetrics merges the given measurements into BENCH_plan.json,
// preserving keys written by other benchmarks in the same run.
func recordBenchMetrics(b *testing.B, kv map[string]float64) {
	b.Helper()
	recordMetricsTo(b, benchOutPath(), kv)
}

// recordMetricsTo merges measurements into the JSON file at path,
// preserving keys written by other benchmarks in the same run.
func recordMetricsTo(b *testing.B, path string, kv map[string]float64) {
	b.Helper()
	m := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &m)
	}
	for k, v := range kv {
		m[k] = v
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench metrics: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

// benchPlanDAG builds the planning benchmark DAG: a 1000-node layered
// fan-out (50 layers × 20 nodes, five parents each) with heterogeneous
// carried compute statistics — the shape and cost spread of a real
// iterative workflow, where the OPT-EXEC-PLAN min-cut has genuine work
// to do (the homogeneous deep chain admits a near-trivial cut).
// Deterministically seeded, so every call builds an equivalent DAG.
func benchPlanDAG() *core.DAG {
	d := core.NewDAG()
	rng := rand.New(rand.NewSource(1))
	const layers, width = 50, 20
	var prev []*core.Node
	for l := 0; l < layers; l++ {
		var cur []*core.Node
		for w := 0; w < width; w++ {
			nd := d.MustAddNode(fmt.Sprintf("n%d_%d", l, w), core.KindExtractor, core.DPR, fmt.Sprintf("op%d_%d-v1", l, w), true)
			nd.Metrics = core.Metrics{Compute: time.Duration(rng.Intn(2000)+1) * time.Millisecond, Known: true}
			if l > 0 {
				for k := 0; k < 5; k++ {
					if err := d.AddEdge(prev[(w+k)%width], nd); err != nil {
						panic(err)
					}
				}
			}
			cur = append(cur, nd)
		}
		prev = cur
	}
	for _, nd := range prev {
		d.MarkOutput(nd)
	}
	d.ComputeSignatures()
	return d
}

// benchView is a synthetic MatView over a signature→size map with the
// paper's 170 MB/s disk, so the solver faces a real load-vs-compute trade.
type benchView struct{ sizes map[string]int64 }

func (v benchView) Lookup(key string) (int64, bool) { s, ok := v.sizes[key]; return s, ok }
func (v benchView) EstimateLoad(size int64) time.Duration {
	return time.Duration(float64(size) / 170e6 * float64(time.Second))
}

// benchPlanView materializes ~60% of the DAG at 1–200 MiB (seeded), so
// the optimal plan mixes loads, computes, and prunes.
func benchPlanView(d *core.DAG) benchView {
	rng := rand.New(rand.NewSource(2))
	sizes := make(map[string]int64, d.Len())
	for _, nd := range d.Nodes() {
		if rng.Float64() < 0.6 {
			sizes[nd.ChainSignature()] = int64(rng.Intn(200)+1) << 20
		}
	}
	return benchView{sizes: sizes}
}

// BenchmarkPlanColdVsCached measures steady-state planning time on the
// 1000-node benchmark DAG with and without the plan cache: cold runs the
// full pipeline (slicing, bitsets, max-flow solve) every call; cached
// fingerprints the same inputs and reuses the previous plan wholesale.
// What is asserted is the contract a hit stands for, as counts: zero
// max-flow solves (per plan and process-wide) and every row reused. The
// timings — best of reps, since both paths share one process and its GC
// pauses — are reported and recorded in BENCH_plan.json but gate
// nothing: the cold/cached ratio is a property of how fast the solver
// is, not of whether the cache works.
func BenchmarkPlanColdVsCached(b *testing.B) {
	prev := benchPlanDAG()
	d := benchPlanDAG()
	view := benchPlanView(d)
	opts := plan.Options{MaterializeOutputs: true}

	reps := b.N
	if reps < 5 {
		reps = 5
	}
	best := func(fn func(i int)) (bestNS, meanNS float64) {
		bestNS = math.Inf(1)
		var total float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			fn(i)
			ns := float64(time.Since(start).Nanoseconds())
			total += ns
			if ns < bestNS {
				bestNS = ns
			}
		}
		return bestNS, total / float64(reps)
	}

	// Cold: no cache, but the pooled solver the engine would have — the
	// delta isolates the cache, not buffer reuse.
	coldPlanner := &plan.Planner{View: view, Opts: opts, Solver: new(opt.Solver)}
	if _, err := coldPlanner.Plan(d, prev, 0); err != nil {
		b.Fatal(err)
	}
	coldNS, coldMean := best(func(i int) {
		if _, err := coldPlanner.Plan(d, prev, i); err != nil {
			b.Fatal(err)
		}
	})

	// Cached: warm to a full-hit steady state, then measure hits.
	cachedPlanner := &plan.Planner{View: view, Opts: opts, Solver: new(opt.Solver), Cache: plan.NewCache("bench")}
	if _, err := cachedPlanner.Plan(d, prev, 0); err != nil {
		b.Fatal(err)
	}
	solvesBefore := opt.SolveCount()
	cachedNS, cachedMean := best(func(i int) {
		p, err := cachedPlanner.Plan(d, prev, i+1)
		if err != nil {
			b.Fatal(err)
		}
		if p.Cache != plan.CacheHit {
			b.Fatalf("rep %d: outcome %v, want hit", i, p.Cache)
		}
		if p.Solves != 0 || p.Reuses() != len(p.Nodes) {
			b.Fatalf("rep %d: hit ran %d solves and reused %d of %d rows, want 0 and all",
				i, p.Solves, p.Reuses(), len(p.Nodes))
		}
	})
	if delta := opt.SolveCount() - solvesBefore; delta != 0 {
		b.Fatalf("%d max-flow solves ran across %d fingerprint hits, want 0", delta, reps)
	}
	_ = coldMean
	_ = cachedMean

	b.ReportMetric(coldNS, "cold-ns/plan")
	b.ReportMetric(cachedNS, "cached-ns/plan")
	b.ReportMetric(coldNS/cachedNS, "speedup")
	recordBenchMetrics(b, map[string]float64{
		"cold_plan_ns":   coldNS,
		"cached_plan_ns": cachedNS,
	})
}

// benchSleepProgram builds the scheduler benchmark DAGs. unbalanced: a
// source feeding 950 short leaves (1ms) declared BEFORE a 50-node chain
// of 5ms stages — under FIFO the whole leaf pile delays the chain, under
// critical-path priority the chain claims a worker immediately. deep:
// a pure 1000-node chain (identical behavior under both orderings — the
// "never worse" guard).
func benchSleepProgram(unbalanced bool) *exec.Program {
	d := core.NewDAG()
	prog := &exec.Program{DAG: d, Fns: make(map[*core.Node]exec.OpFunc)}
	sleepFn := func(dur time.Duration) exec.OpFunc {
		return func(ctx context.Context, in []any) (any, error) {
			time.Sleep(dur)
			return 1, nil
		}
	}
	if !unbalanced {
		var prev *core.Node
		for i := 0; i < 1000; i++ {
			nd := d.MustAddNode(fmt.Sprintf("c%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("c%d-v1", i), true)
			nd.Metrics = core.Metrics{Compute: 500 * time.Microsecond, Known: true}
			prog.Fns[nd] = sleepFn(500 * time.Microsecond)
			if prev != nil {
				if err := d.AddEdge(prev, nd); err != nil {
					panic(err)
				}
			}
			prev = nd
		}
		d.MarkOutput(prev)
		return prog
	}
	src := d.MustAddNode("src", core.KindSource, core.DPR, "src-v1", true)
	prog.Fns[src] = func(ctx context.Context, in []any) (any, error) { return 1, nil }
	sink := d.MustAddNode("sink", core.KindReducer, core.PPR, "sink-v1", true)
	for i := 0; i < 949; i++ {
		nd := d.MustAddNode(fmt.Sprintf("leaf%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("leaf%d-v1", i), true)
		nd.Metrics = core.Metrics{Compute: time.Millisecond, Known: true}
		prog.Fns[nd] = sleepFn(time.Millisecond)
		if err := d.AddEdge(src, nd); err != nil {
			panic(err)
		}
		if err := d.AddEdge(nd, sink); err != nil {
			panic(err)
		}
	}
	prev := src
	for i := 0; i < 49; i++ {
		nd := d.MustAddNode(fmt.Sprintf("chain%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("chain%d-v1", i), true)
		nd.Metrics = core.Metrics{Compute: 5 * time.Millisecond, Known: true}
		prog.Fns[nd] = sleepFn(5 * time.Millisecond)
		if err := d.AddEdge(prev, nd); err != nil {
			panic(err)
		}
		prev = nd
	}
	if err := d.AddEdge(prev, sink); err != nil {
		panic(err)
	}
	prog.Fns[sink] = func(ctx context.Context, in []any) (any, error) { return len(in), nil }
	d.MarkOutput(sink)
	return prog
}

// execWall plans once and executes the program under the given scheduler
// mode at Parallelism 4, returning the execution wall-clock (planning
// excluded — this benchmark isolates ordering).
func execWall(b *testing.B, prog *exec.Program, mode exec.SchedMode) time.Duration {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e := &exec.Engine{Store: st, Opts: exec.Options{
		Policy:              opt.NeverMat{},
		SyncMaterialization: true,
		Parallelism:         4,
		Sched:               mode,
	}}
	p, err := e.Plan(prog.DAG, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Execute(context.Background(), prog, p)
	if err != nil {
		b.Fatal(err)
	}
	return res.Wall
}

// BenchmarkSchedCriticalPath compares FIFO against critical-path ready
// ordering at Parallelism 4 on the 1k-node benchmark DAGs. On the
// unbalanced fan-out the straggler chain must start early enough that
// critical-path wall-clock beats FIFO; on the deep chain the two
// orderings are behaviorally identical and critical-path may never be
// meaningfully worse. Results land in BENCH_plan.json.
func BenchmarkSchedCriticalPath(b *testing.B) {
	// Floor the sample count even under -benchtime=1x: each measurement
	// is a sleep-bound wall-clock on a possibly noisy shared runner, and
	// the crit≤fifo assertion below must not fail CI on a single CPU
	// hiccup. Best-of-3 per mode is stable; more reps add time, not
	// precision.
	reps := b.N
	if reps < 3 {
		reps = 3
	}
	if reps > 5 {
		reps = 5
	}
	measure := func(unbalanced bool, mode exec.SchedMode) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			if w := execWall(b, benchSleepProgram(unbalanced), mode); w < best {
				best = w
			}
		}
		return best
	}

	// Warm the scheduler/runtime once so neither mode pays first-run cost.
	execWall(b, benchSleepProgram(true), exec.SchedCriticalPath)

	fifoFan := measure(true, exec.SchedFIFO)
	critFan := measure(true, exec.SchedCriticalPath)
	fifoChain := measure(false, exec.SchedFIFO)
	critChain := measure(false, exec.SchedCriticalPath)

	b.ReportMetric(float64(fifoFan.Nanoseconds()), "fifo-fanout-ns")
	b.ReportMetric(float64(critFan.Nanoseconds()), "critpath-fanout-ns")
	b.ReportMetric(float64(fifoChain.Nanoseconds()), "fifo-chain-ns")
	b.ReportMetric(float64(critChain.Nanoseconds()), "critpath-chain-ns")
	recordBenchMetrics(b, map[string]float64{
		"fifo_wall":           float64(fifoFan.Nanoseconds()),
		"critpath_wall":       float64(critFan.Nanoseconds()),
		"fifo_chain_wall":     float64(fifoChain.Nanoseconds()),
		"critpath_chain_wall": float64(critChain.Nanoseconds()),
	})

	if critFan > fifoFan {
		b.Fatalf("critical-path scheduling lost on the unbalanced fan-out: crit %v > fifo %v", critFan, fifoFan)
	}
	// Deep chain: single ready node at every step, so the orderings are
	// identical; allow generous noise but catch systematic regressions.
	if critChain > fifoChain*5/4+100*time.Millisecond {
		b.Fatalf("critical-path scheduling worse than FIFO on the deep chain: crit %v vs fifo %v", critChain, fifoChain)
	}
}
