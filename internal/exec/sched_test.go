package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/store"
)

// chainProgram builds a 1000+-node deep chain: each node adds 1 to its
// input, so the output equals the chain length and any scheduling error
// (skipped node, wrong input) shows up as a wrong integer.
func deepChainProgram(n int) *Program {
	d := core.NewDAG()
	prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc, n)}
	var prev *core.Node
	for i := 0; i < n; i++ {
		node := d.MustAddNode(fmt.Sprintf("c%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("c%d-v1", i), true)
		if prev != nil {
			mustEdge(d, prev, node)
		}
		prog.Fns[node] = func(ctx context.Context, in []any) (any, error) {
			if len(in) == 0 {
				return 1, nil
			}
			return in[0].(int) + 1, nil
		}
		prev = node
	}
	d.MarkOutput(prev)
	return prog
}

// fanoutProgram builds source → n extractors → sink: the widest possible
// ready queue. The sink sums its inputs, so the result checks that every
// branch ran against the right input.
func fanoutProgram(n int) *Program {
	d := core.NewDAG()
	prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc, n+2)}
	src := d.MustAddNode("src", core.KindSource, core.DPR, "src-v1", true)
	prog.Fns[src] = func(ctx context.Context, in []any) (any, error) { return 7, nil }
	sink := d.MustAddNode("sink", core.KindReducer, core.PPR, "sink-v1", true)
	for i := 0; i < n; i++ {
		i := i
		node := d.MustAddNode(fmt.Sprintf("f%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("f%d-v1", i), true)
		mustEdge(d, src, node)
		mustEdge(d, node, sink)
		prog.Fns[node] = func(ctx context.Context, in []any) (any, error) {
			return in[0].(int) * (i + 1), nil
		}
	}
	prog.Fns[sink] = func(ctx context.Context, in []any) (any, error) {
		sum := 0
		for _, v := range in {
			sum += v.(int)
		}
		return sum, nil
	}
	d.MarkOutput(sink)
	return prog
}

// runBounded executes prog on a fresh engine with the given parallelism,
// NeverMat policy and no mandatory outputs (nothing reaches the store's
// writer pool, so the only goroutines in play are the scheduler's workers), returning the output value and the
// peak goroutine-count delta observed during the run.
func runBounded(t *testing.T, prog *Program, parallelism int) (any, int) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{
		Policy:      opt.NeverMat{},
		Parallelism: parallelism,
	}}

	before := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	res, err := e.Run(context.Background(), prog, nil, 0)
	close(stop)
	<-monitorDone
	if err != nil {
		t.Fatal(err)
	}
	outs := prog.DAG.Outputs()
	delta := int(peak.Load()) - before
	return res.Values[outs[len(outs)-1].Name], delta
}

// maxSchedDelta is the goroutine-count bound the scheduler must respect:
// its compute worker pool plus the store's writer pool, with slack for
// the monitor goroutine and the runtime's own background goroutines. The
// stress plans are iteration-0 all-compute DAGs, so the scheduler's
// separate I/O pool (sized by the plan's load count, here zero) adds
// nothing.
func maxSchedDelta(parallelism int) int {
	return parallelism + store.DefaultWriters + 2
}

func TestSchedulerDeepChainBoundedGoroutines(t *testing.T) {
	const n, par = 1000, 4
	got, delta := runBounded(t, deepChainProgram(n), par)
	if got != n {
		t.Fatalf("deep chain output = %v, want %d", got, n)
	}
	if delta > maxSchedDelta(par) {
		t.Fatalf("goroutine delta %d exceeds bound %d (parallelism %d): scheduler is not bounded",
			delta, maxSchedDelta(par), par)
	}
	// The bounded run must produce exactly what an effectively unbounded
	// pool produces.
	baseline, _ := runBounded(t, deepChainProgram(n), n)
	if got != baseline {
		t.Fatalf("bounded output %v != unbounded baseline %v", got, baseline)
	}
}

func TestSchedulerWideFanoutBoundedGoroutines(t *testing.T) {
	const n, par = 1000, 4
	got, delta := runBounded(t, fanoutProgram(n), par)
	want := 0
	for i := 0; i < n; i++ {
		want += 7 * (i + 1)
	}
	if got != want {
		t.Fatalf("fan-out output = %v, want %d", got, want)
	}
	if delta > maxSchedDelta(par) {
		t.Fatalf("goroutine delta %d exceeds bound %d (parallelism %d): %d-wide fan-out spawned per-node goroutines?",
			delta, maxSchedDelta(par), par, n)
	}
	baseline, _ := runBounded(t, fanoutProgram(n), n+2)
	if got != baseline {
		t.Fatalf("bounded output %v != unbounded baseline %v", got, baseline)
	}
}

// TestSchedulerParallelismActuallyOverlaps asserts the pool really runs
// up to Parallelism operators concurrently (it is a scheduler, not a
// serializer): with 8 parallel branches each sleeping 20ms and 4 workers,
// peak observed concurrency must reach 4 — and never exceed it.
func TestSchedulerParallelismActuallyOverlaps(t *testing.T) {
	const branches, par = 8, 4
	d := core.NewDAG()
	prog := &Program{DAG: d, Fns: make(map[*core.Node]OpFunc, branches+1)}
	var inFlight, maxInFlight atomic.Int32
	sink := d.MustAddNode("sink", core.KindReducer, core.PPR, "sink-v1", true)
	for i := 0; i < branches; i++ {
		node := d.MustAddNode(fmt.Sprintf("b%d", i), core.KindExtractor, core.DPR, fmt.Sprintf("b%d-v1", i), true)
		mustEdge(d, node, sink)
		prog.Fns[node] = func(ctx context.Context, in []any) (any, error) {
			cur := inFlight.Add(1)
			for {
				prev := maxInFlight.Load()
				if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			inFlight.Add(-1)
			return 1, nil
		}
	}
	prog.Fns[sink] = func(ctx context.Context, in []any) (any, error) { return len(in), nil }
	d.MarkOutput(sink)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{
		Policy:      opt.NeverMat{},
		Parallelism: par,
	}}
	res, err := e.Run(context.Background(), prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["sink"] != branches {
		t.Fatalf("sink = %v, want %d", res.Values["sink"], branches)
	}
	if got := maxInFlight.Load(); got > par {
		t.Fatalf("observed %d concurrent operators, bound is %d", got, par)
	}
	if got := maxInFlight.Load(); got < 2 {
		t.Fatalf("observed %d concurrent operators: pool is serializing", got)
	}
}

// TestSchedulerReuseAcrossIterationsAtScale drives the deep chain through
// a second identical iteration under a reusing engine: the output loads,
// everything else prunes, and the bounded scheduler handles a plan that
// is almost entirely pruned nodes.
func TestSchedulerReuseAcrossIterationsAtScale(t *testing.T) {
	const n, par = 1000, 4
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, -1)
	e.Opts.Parallelism = par
	ctx := context.Background()
	prog := deepChainProgram(n)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	// The trivial integer ops measure in nanoseconds, so recomputing the
	// whole chain would genuinely beat one disk load and the optimizer
	// would (correctly) recompute. Inflate the carried statistics to make
	// reuse the optimal plan — the paper's regime, where operators take
	// seconds — so the rerun exercises a 1000-node almost-all-pruned plan.
	for _, node := range prog.DAG.Nodes() {
		node.Metrics.Compute = time.Second
		node.Metrics.Known = true
	}
	prog2 := deepChainProgram(n)
	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[fmt.Sprintf("c%d", n-1)]; got != n {
		t.Fatalf("reused output = %v, want %d", got, n)
	}
	if res.StateCounts[core.StateCompute] != 0 {
		t.Fatalf("identical rerun computed %d nodes", res.StateCounts[core.StateCompute])
	}
}
