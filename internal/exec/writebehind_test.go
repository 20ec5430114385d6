package exec

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

func init() {
	store.RegisterValueType([]float64(nil))
}

// chainProgram builds a linear chain of n nodes, each sleeping compute
// per step on the run's clock and emitting a fresh ~payloadFloats·8-byte
// slice. A linear chain puts every materialization on the critical path
// when writes are inline (a run on a Biller): node i's write happens on
// the goroutine of node i+1 before i+1's done channel closes, so node i+2
// cannot start until the write finishes.
// Payload values are reciprocals so every mantissa is fully populated —
// gob trims trailing zero bytes of the byte-reversed float encoding, and
// integer-valued floats would encode to a fraction of their in-memory
// size, starving the simulated disk of the load this test relies on.
func chainProgram(n int, compute time.Duration, payloadFloats int) *Program {
	d := core.NewDAG()
	fns := make(map[*core.Node]OpFunc, n)
	var prev *core.Node
	for i := 0; i < n; i++ {
		node := d.MustAddNode(fmt.Sprintf("n%02d", i), core.KindExtractor, core.DPR, fmt.Sprintf("v%02d", i), true)
		if prev != nil {
			mustEdge(d, prev, node)
		}
		fns[node] = func(ctx context.Context, in []any) (any, error) {
			clock.From(ctx).Sleep(compute)
			out := make([]float64, payloadFloats)
			for j := range out {
				out[j] = 1 / float64(i*payloadFloats+j+1)
			}
			return out, nil
		}
		prev = node
	}
	d.MarkOutput(prev)
	return &Program{DAG: d, Fns: fns}
}

// chainDiskBytesPerSec is runChain's simulated disk: 8 MiB/s, ~64 ms per
// 512 KiB write.
const chainDiskBytesPerSec = 8 << 20

// runChain runs the chain on ctx's clock: write-behind on the host's
// clock or a plain clock.Model, inline on a Biller.
func runChain(t *testing.T, ctx context.Context) *Result {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.DiskBytesPerSec = chainDiskBytesPerSec
	e := &Engine{Store: st, Opts: Options{
		Policy: opt.AlwaysMat{},
		Plan:   plan.Options{MaterializeOutputs: true, Streaming: true},
		// Pinned pool width: this test measures write-behind overlap, and
		// on a single-CPU host the GOMAXPROCS default would leave one
		// worker whose raced, instrumented compute starves the writer pool
		// of scheduling slots, skewing the very overlap being measured.
		Parallelism: 4,
	}}
	// Each node computes for a quarter of one write (~64 ms), so the
	// store's DefaultWriters (4) writers keep up with the chain: every
	// background write starts as its node finishes, and the flush barrier
	// waits roughly one write, not a queue of them.
	prog := chainProgram(8, 16*time.Millisecond, 1<<16) // ~512 KiB encoded each
	res, err := e.Run(ctx, prog, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 8 {
		t.Fatalf("stored %d entries, want 8", got)
	}
	return res
}

// inlineBill is what res would have cost with every write inline: the
// nodes' own times plus the whole materialization bill, one after the
// other, as a serial run pays them.
func inlineBill(res *Result) time.Duration {
	bill := res.MatTime
	for _, rep := range res.Nodes {
		bill += time.Duration(rep.Seconds * float64(time.Second))
	}
	return bill
}

// TestWriteBehindExcludesMatFromWall: on a materialization-heavy chain, a
// write-behind run's end-to-end latency must exclude at least 80% of the
// simulated-disk time its own inline bill pays on the critical path,
// while MatTime accounting stays honest.
func TestWriteBehindExcludesMatFromWall(t *testing.T) {
	res := runChain(t, context.Background())

	// Sanity: the workload is actually materialization-heavy — the
	// simulated disk alone costs 8 × ~64ms.
	if res.MatTime < 400*time.Millisecond {
		t.Fatalf("MatTime = %v, workload not materialization-heavy", res.MatTime)
	}
	// Accounting stays honest: write-behind still reports the
	// serialize+write bill, which holds every write's simulated-disk
	// sleep (the bytes stored over the disk speed, 8 × ~64 ms).
	diskTime := time.Duration(float64(res.StorageBytes) / chainDiskBytesPerSec * float64(time.Second))
	if res.MatTime < diskTime {
		t.Errorf("MatTime = %v below the %v simulated-disk time: materialization cost unaccounted", res.MatTime, diskTime)
	}
	// The criterion: end-to-end latency — compute wall plus the
	// flush-barrier wait Run blocks on — excludes ≥80% of the part of the
	// inline bill that can always overlap: the simulated disk's sleeps.
	// Measured MatTime also holds the encode CPU, which overlaps only when
	// a core is idle — other packages' tests sharing the box took it below
	// 80% of that. Under the race detector the instrumented encode work
	// runs several times slower and contends with the compute chain, so
	// the raced bar drops to 40% — still a firm "the pool overlaps most of
	// the bill" check — while the strict bound is enforced by every
	// unraced (tier-1) run.
	threshold := 0.8
	if raceEnabled {
		threshold = 0.4
		if runtime.GOMAXPROCS(0) == 1 {
			// A single OS thread cannot overlap the race-instrumented
			// encode with the compute chain at all — only the writers'
			// simulated-disk sleeps overlap one another. The ratio is
			// physically unattainable, so require only that write-behind
			// still strictly wins end-to-end.
			threshold = 0
		}
	}
	bill := inlineBill(res)
	excluded := bill - (res.Wall + res.FlushWait)
	min := time.Duration(1)
	if threshold > 0 {
		min = time.Duration(threshold * float64(diskTime))
	}
	if excluded < min {
		t.Errorf("write-behind excluded only %v of %v simulated-disk time (want ≥ %v); inline bill %v (MatTime %v), wall %v + flush %v",
			excluded, diskTime, min, bill, res.MatTime, res.Wall, res.FlushWait)
	}
}

// TestWriteBehindComparison is the write-behind A/B on model time, where
// only the chain's compute and the simulated disk move the clock, so the
// invariants that hold at any scale hold exactly. On a plain clock.Model
// the run writes behind; on a Biller (chargeBiller, charging nothing of
// its own) the same chain writes inline. Both sleep the same total (same
// compute, same bytes through the same disk); the inline run sleeps it
// all on the critical path, one thing at a time. Write-behind therefore
// stores the same bytes, never adds to end-to-end latency — neither
// against the inline run nor against its own inline bill — and still
// reports at least the whole materialization bill: a writer's span on the
// shared model clock also covers whatever slept beside it, so it can only
// bill more.
func TestWriteBehindComparison(t *testing.T) {
	inline := runChain(t, clock.With(context.Background(), &chargeBiller{}))
	behind := runChain(t, clock.With(context.Background(), &clock.Model{}))
	if inline.MatTime <= 0 || behind.MatTime < inline.MatTime {
		t.Errorf("MatTime: inline %v, write-behind %v: want inline positive and write-behind no less", inline.MatTime, behind.MatTime)
	}
	if inline.StorageBytes != behind.StorageBytes {
		t.Errorf("StorageBytes: inline %d, write-behind %d: want equal", inline.StorageBytes, behind.StorageBytes)
	}
	if inline.Wall < inline.MatTime {
		t.Errorf("inline wall %v below its materialization bill %v: writes left the critical path", inline.Wall, inline.MatTime)
	}
	total := behind.Wall + behind.FlushWait
	if total > inline.Wall {
		t.Errorf("write-behind wall %v + flush %v exceeds the inline wall %v", behind.Wall, behind.FlushWait, inline.Wall)
	}
	if bill := inlineBill(behind); total > bill {
		t.Errorf("write-behind wall %v + flush %v exceeds its own inline bill %v", behind.Wall, behind.FlushWait, bill)
	}
	if inline.FlushWait != 0 {
		t.Errorf("inline run reported FlushWait %v", inline.FlushWait)
	}
}

// TestFlushMakesRunNVisibleToRunN1 is the flush-semantics contract: an
// iteration run immediately after its predecessor must observe every
// materialization the policy accepted — no reuse lost to unflushed
// write-behind writes.
func TestFlushMakesRunNVisibleToRunN1(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Back-to-back rerun: every node must load or prune; a single compute
	// means a write accepted in run N had not landed by planning time.
	var c2 counters
	prog2 := testProgram(&c2)
	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.source.Load() + c2.extract.Load() + c2.learn.Load() + c2.check.Load(); got != 0 {
		t.Fatalf("iteration N+1 recomputed %d operators: write-behind results not flushed", got)
	}
	if res.StateCounts[core.StateCompute] != 0 {
		t.Fatalf("iteration N+1 states: %v, want no computes", res.StateCounts)
	}
}

// TestLoadFailureRecoversWithAsyncWritesInFlight deletes a materialized
// blob behind the manifest's back and asserts the run recovers — the
// failed load drops the entry and the iteration plans again — while the
// run's own write-behind materializations are concurrently in flight.
func TestLoadFailureRecoversWithAsyncWritesInFlight(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Opts: Options{Policy: opt.AlwaysMat{}, Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}

	// Remove extract's blob only — the manifest still advertises it, so
	// the next plan schedules a Load that is doomed to fail.
	extKey := prog.DAG.Node("extract").ChainSignature()
	if !st.Has(extKey) {
		t.Fatal("extract not materialized in iteration 0")
	}
	if err := os.Remove(filepath.Join(dir, extKey+".gob")); err != nil {
		t.Fatal(err)
	}

	// Change the learner: learn/check recompute and re-materialize via
	// the writer pool while extract's failed load makes the same run plan
	// again and compute it.
	var c2 counters
	prog2 := testProgram(&c2)
	lrn := prog2.DAG.Node("learn")
	lrn.OpSignature = "lrn-v2"
	prog2.Fns[lrn] = func(ctx context.Context, in []any) (any, error) {
		c2.learn.Add(1)
		return in[0].(int) * 20, nil
	}
	res, err := e.Run(ctx, prog2, prog.DAG, 1)
	if err != nil {
		t.Fatalf("load-failure fallback errored: %v", err)
	}
	if got := res.Values["check"]; got != 0.6 {
		t.Fatalf("recovered output = %v, want 0.6", got)
	}
	if c2.extract.Load() == 0 {
		t.Fatal("extract was not recomputed despite its blob being gone")
	}
	// The run's own async writes all landed before Run returned.
	newLearnKey := prog2.DAG.Node("learn").ChainSignature()
	if !st.Has(newLearnKey) {
		t.Fatal("changed learner's materialization missing after Run")
	}
	if _, _, err := st.Get(newLearnKey); err != nil {
		t.Fatalf("changed learner's blob unreadable: %v", err)
	}
}

// TestAsyncPreservesBudgetedPolicy: writes the policy wants, decided on
// writer goroutines, are still admitted against its budget — the bytes
// stored besides the output never exceed it — and a budget below the
// iteration's artifacts declines some of them.
func TestAsyncPreservesBudgetedPolicy(t *testing.T) {
	ctx := context.Background()
	var c counters
	prog := testProgram(&c)
	optional := func(st *store.Store) (bytes int64) {
		for _, key := range st.Keys() {
			if ent, _ := st.Entry(key); ent.Name != "check" {
				bytes += ent.Size
			}
		}
		return bytes
	}
	probe, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(probe, -1).Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	all := optional(probe)
	if probe.Len() < 3 {
		t.Fatalf("policy accepted %d artifacts; test needs a materialization-worthy chain", probe.Len()-1)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	budget := all - 1
	e := &Engine{Store: st, Opts: Options{Policy: opt.NewStreamingOMP(budget), Plan: plan.Options{MaterializeOutputs: true, Streaming: true}}}
	if _, err := e.Run(ctx, prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	got := optional(st)
	if got == 0 || got > budget {
		t.Fatalf("write-behind stored %d optional bytes under a %d B budget (%d B unbudgeted)", got, budget, all)
	}
}
