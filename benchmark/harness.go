package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"helix"
	"helix/internal/opt"
	"helix/internal/store"
	"helix/internal/workloads"
)

// setupRounds is how often set-up (inputs, oracle pass) is repeated in a
// run; setup_s is the median.
const setupRounds = 3

// iterSample is what one Session.Run left behind: the wall time the
// harness took around it, and the program's own account (Result).
type iterSample struct {
	tag    string
	failed bool
	accGap float64 // approx workloads: accuracy minus the oracle's

	wall       float64 // s, time.Since around Session.Run
	slow       float64 // hostSlowdown around the run: mean of before and after
	engineWall float64 // Result.Wall
	flushWait  float64 // Result.FlushWait
	planTime   float64 // Result.PlanTime
	matTime    float64 // Result.MatTime
	projected  float64 // Result.Plan.ProjectedSeconds
	outcome    helix.PlanCacheOutcome

	dpr, li, ppr    float64 // Result.Breakdown
	computeS, loadS float64 // Σ NodeReport.Seconds by state
	computed        int
	loaded          int
	pruned          int
	bytesWritten    int64 // Σ NodeReport.Bytes of nodes this run materialized
	allocs          float64
	allocBytes      float64
}

// repResult is one pass over the schedule in a fresh session.
type repResult struct {
	iters      []iterSample
	openS      float64
	closeS     float64
	compileS   []float64 // explicit Workflow.Compile calls; traced reps only
	peakHeap   float64   // bytes
	storeBytes int64
	solves     int64
	traceRun   int // tracer run id; traced reps only
}

func (r *repResult) cum() float64 {
	var t float64
	for _, it := range r.iters {
		t += it.wall
	}
	return t
}

// refWall is the iteration's wall time on a host at reference speed.
func (it *iterSample) refWall() float64 { return it.wall / it.slow }

// The hosts this benchmark runs on share their cores. One fixed
// single-threaded loop took 0.92 s or 1.13 s here depending on what the
// neighbours did, in spells of one to thirty seconds: often as long as a
// run, so that medians inside a run do not remove them, and two runs of
// one commit sat up to 20 % apart. An iteration's wall time went with the
// loop's (slope 0.8 to 1.2 in the logarithms). The harness therefore times
// that loop before and after every call it measures and reports the
// call's time at reference speed: wall time divided by how much slower
// than the reference the loop ran. The factor is reported too, as
// host.slowdown. See README.md, "Seconds at reference speed".
const (
	speedSteps      = 500_000
	referenceStepNs = 1.5 // this box at its fastest
)

// spin runs steps dependent floating-point operations — the reference
// loop, and the work plan-wide's operators do — and returns their
// positive result, which the caller must use lest the compiler drop them.
func spin(steps int) float64 {
	x := 1.0
	for i := 0; i < steps; i++ {
		x = x*1.0000001 + 0.5
	}
	return x
}

// hostSlowdown is how much longer the reference loop takes now than on a
// host at reference speed: the best of three, since only a pre-emption
// can lengthen one.
func hostSlowdown() float64 {
	best := time.Duration(math.MaxInt64)
	for k := 0; k < 3; k++ {
		start := time.Now()
		if spin(speedSteps) < 0 {
			panic("spin returned a negative number")
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / (speedSteps * referenceStepNs)
}

// oracleEntry is one workflow version evaluated from scratch.
type oracleEntry struct {
	values  map[string]any
	encoded map[string][]byte
	seconds float64 // at reference speed
}

type harness struct {
	wl    workload
	seed  int64
	quick bool
	ctx   context.Context

	fresh    func(opEnv) instance
	oracle   map[string]*oracleEntry
	stepKeys []string // oracle key per schedule step
	setupS   []float64
	tr       *tracer
	// scratch is the parent of every session directory (newScratch).
	scratch string
	// faultStep asks bench-owned operators to corrupt that step's output
	// in every rep (never in the oracle pass); -1 in production.
	faultStep int
	// keep leaves each rep's session directory in place until the next
	// rep ends; kept is the one currently left, for the caller to inspect
	// and remove.
	keep bool
	kept string

	attempted, failed int
}

// setup generates the inputs and evaluates every distinct workflow
// version of the schedule once from scratch (reuse off, never
// materialize) as the correctness oracle.
func (h *harness) setup() error {
	start, slow := time.Now(), []float64{hostSlowdown()}
	h.fresh = h.wl.prepare(h.seed, h.quick)
	h.oracle = map[string]*oracleEntry{}
	h.stepKeys = nil

	dir, err := os.MkdirTemp(h.scratch, "oracle-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sess, err := helix.Open(dir, helix.WithReuse(false), helix.WithPolicy(helix.PolicyNever))
	if err != nil {
		return err
	}
	defer sess.Close()
	inst := h.fresh(opEnv{faultStep: -1})
	for i := range inst.tags() {
		wf := inst.workflow(i)
		key, err := versionKey(wf)
		if err != nil {
			return err
		}
		h.stepKeys = append(h.stepKeys, key)
		if h.oracle[key] != nil {
			continue
		}
		t := time.Now()
		res, err := sess.Run(h.ctx, wf)
		if err != nil {
			return fmt.Errorf("oracle step %d: %w", i, err)
		}
		wall := time.Since(t).Seconds()
		slow = append(slow, hostSlowdown())
		ent := &oracleEntry{values: res.Values, encoded: map[string][]byte{}, seconds: 2 * wall / (slow[len(slow)-2] + slow[len(slow)-1])}
		for name, v := range res.Values {
			if ent.encoded[name], err = canonical(v); err != nil {
				return fmt.Errorf("oracle step %d output %s: %w", i, name, err)
			}
		}
		h.oracle[key] = ent
	}
	h.setupS = append(h.setupS, time.Since(start).Seconds()/mean(slow))
	return nil
}

// noReuseCum is the schedule's cumulative time with reuse off: the
// oracle pass, each step charged its version's from-scratch time.
func (h *harness) noReuseCum() float64 {
	var t float64
	for _, k := range h.stepKeys {
		t += h.oracle[k].seconds
	}
	return t
}

// versionKey identifies a workflow version by the chain signatures of
// its declared outputs: two workflows with equal keys compute the same
// outputs, so the oracle evaluates them once.
func versionKey(wf *helix.Workflow) (string, error) {
	prog, err := wf.Compile()
	if err != nil {
		return "", err
	}
	prog.DAG.ComputeSignatures()
	var sigs []string
	for _, n := range prog.DAG.Outputs() {
		sigs = append(sigs, n.Name+"="+n.ChainSignature())
	}
	sort.Strings(sigs)
	return strings.Join(sigs, ","), nil
}

// canonical encodes an output value to bytes that are equal iff the
// values are. store.Encode (gob) writes map entries in iteration order,
// so a report's metric map goes through the binary codec, which sorts.
func canonical(v any) ([]byte, error) {
	if r, ok := v.(workloads.EvalReport); ok {
		v = r.Metrics
	}
	return store.BinaryCodec{}.Encode(v)
}

// verify compares one iteration's declared outputs to the oracle's. prev
// holds the outputs of the rep's previous iteration (nil at iteration 0).
// For an approx workload it returns how far the accuracy sits from the
// oracle's.
func (h *harness) verify(step int, tag string, got, prev map[string]any) (accGap float64, err error) {
	want := h.oracle[h.stepKeys[step]]
	if len(got) != len(want.encoded) {
		return 0, fmt.Errorf("%d outputs, oracle has %d", len(got), len(want.encoded))
	}
	for name, wantBytes := range want.encoded {
		v, ok := got[name]
		if !ok {
			return 0, fmt.Errorf("output %s missing", name)
		}
		if h.wl.approx {
			var before any
			if tag == tagSmall {
				before = prev[name]
			}
			if accGap, err = approxEqual(v, want.values[name], before); err != nil {
				return 0, fmt.Errorf("output %s: %w", name, err)
			}
			continue
		}
		gotBytes, err := canonical(v)
		if err != nil {
			return 0, fmt.Errorf("output %s: %w", name, err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			return 0, fmt.Errorf("output %s differs from the from-scratch oracle", name)
		}
	}
	return accGap, nil
}

// A nondeterministic workload (mnist-iter draws a fresh random projection
// in every run that recomputes its features) cannot be compared byte for
// byte. Its 400 test images put two honest runs of one version up to 0.09
// of accuracy apart, so a single iteration is only held to
// accuracyTolerance. Two tighter checks make up for that: a small
// iteration reuses the stored predictions and must reproduce the previous
// iteration's accuracy exactly, and the mean gap over a rep's cold and big
// iterations, where the projection noise averages out, must stay within
// accuracyDrift.
const (
	accuracyTolerance = 0.15
	accuracyDrift     = 0.05
)

// approxEqual checks a nondeterministic workload's report: the same
// metric names as the oracle's, accuracy within accuracyTolerance of it,
// and — when before is the previous iteration's report, of a small
// iteration — exactly the accuracy reported then.
func approxEqual(got, want, before any) (accGap float64, err error) {
	g, ok1 := got.(workloads.EvalReport)
	w, ok2 := want.(workloads.EvalReport)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("got %T, oracle has %T", got, want)
	}
	if len(g.Metrics) != len(w.Metrics) {
		return 0, fmt.Errorf("%d metrics, oracle has %d", len(g.Metrics), len(w.Metrics))
	}
	for k := range w.Metrics {
		if _, ok := g.Metrics[k]; !ok {
			return 0, fmt.Errorf("metric %s missing", k)
		}
	}
	accGap = g.Metrics["accuracy"] - w.Metrics["accuracy"]
	if math.Abs(accGap) > accuracyTolerance {
		return 0, fmt.Errorf("accuracy %.4f, oracle %.4f", g.Metrics["accuracy"], w.Metrics["accuracy"])
	}
	if b, ok := before.(workloads.EvalReport); ok && g.Metrics["accuracy"] != b.Metrics["accuracy"] {
		return 0, fmt.Errorf("accuracy %.4f after a small edit, %.4f before it: the predictions were not reused", g.Metrics["accuracy"], b.Metrics["accuracy"])
	}
	return accGap, nil
}

// heapSampler tracks the maximum of live heap object bytes, sampled
// every 2 ms (paper Fig. 10) — the only goroutine the harness adds.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-s.stop:
				s.done <- float64(peak)
				return
			}
		}
	}()
	return s
}

func (s *heapSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// allocCounters reads the cumulative heap allocation counters.
func allocCounters(sample []metrics.Sample) (objects, bytes float64) {
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()), float64(sample[1].Value.Uint64())
}

// rep runs the whole schedule once the way one developer does: fresh
// directory, fresh session with default options, fresh workload
// instance, a closed loop of Session.Run calls. With traced set, the
// session reports to the tracer and every harness call is a span.
func (h *harness) rep(traced bool) (*repResult, error) {
	dir, err := os.MkdirTemp(h.scratch, "rep-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if h.keep {
			dir, h.kept = h.kept, dir
		}
		os.RemoveAll(dir)
	}()

	var tr *tracer
	var opts []helix.Option
	out := &repResult{}
	if traced {
		tr = h.tr
		tr.run++
		out.traceRun = tr.run
		opts = append(opts, helix.WithObserver(tr.observe))
	}
	inst := h.fresh(opEnv{tr: tr, faultStep: h.faultStep})
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	solves := opt.SolveCount()
	runtime.GC()
	sampler := startHeapSampler()

	var sess *helix.Session
	out.openS = tr.call("helix.Open", func() { sess, err = helix.Open(dir, opts...) }).Seconds()
	if err != nil {
		sampler.peak()
		return nil, err
	}
	var prev map[string]any
	slow := hostSlowdown()
	for i, tag := range inst.tags() {
		wf := inst.workflow(i)
		if traced {
			out.compileS = append(out.compileS, tr.call("Workflow.Compile", func() { wf.Compile() }).Seconds())
		}
		it := iterSample{tag: tag}
		objs0, bytes0 := allocCounters(allocSample)
		var res *helix.Result
		var runErr error
		it.wall = tr.call("Session.Run", func() { res, runErr = sess.Run(h.ctx, wf) }).Seconds()
		objs1, bytes1 := allocCounters(allocSample)
		it.allocs, it.allocBytes = objs1-objs0, bytes1-bytes0
		after := hostSlowdown()
		it.slow, slow = (slow+after)/2, after
		if runErr == nil {
			it.account(res)
			it.accGap, runErr = h.verify(i, tag, res.Values, prev)
			prev = res.Values
		}
		if runErr != nil {
			it.failed = true
			fmt.Fprintf(os.Stderr, "%s: iteration %d (%s) failed: %v\n", h.wl.name, i, tag, runErr)
		}
		out.iters = append(out.iters, it)
	}
	if h.wl.approx {
		out.checkDrift(h.wl.name)
	}
	out.storeBytes = sess.StorageBytes()
	out.closeS = tr.call("Session.Close", func() { err = sess.Close() }).Seconds()
	out.peakHeap = sampler.peak()
	out.solves = opt.SolveCount() - solves
	return out, err
}

// checkDrift fails the cold and big iterations of a rep of an approx
// workload together when their mean accuracy gap exceeds accuracyDrift.
func (r *repResult) checkDrift(name string) {
	var sum float64
	var n int
	for _, it := range r.iters {
		if it.tag != tagSmall && !it.failed {
			sum += it.accGap
			n++
		}
	}
	if n == 0 || math.Abs(sum/float64(n)) <= accuracyDrift {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: mean accuracy of %d cold and big iterations is %+.4f from the oracle's: all failed\n", name, n, sum/float64(n))
	for i := range r.iters {
		if r.iters[i].tag != tagSmall {
			r.iters[i].failed = true
		}
	}
}

// account copies the program's own report of the run into the sample.
func (it *iterSample) account(res *helix.Result) {
	it.engineWall = res.Wall.Seconds()
	it.flushWait = res.FlushWait.Seconds()
	it.planTime = res.PlanTime.Seconds()
	it.matTime = res.MatTime.Seconds()
	it.projected = res.Plan.ProjectedSeconds
	it.outcome = res.Plan.Cache
	it.dpr = res.Breakdown[helix.DPR].Seconds()
	it.li = res.Breakdown[helix.LI].Seconds()
	it.ppr = res.Breakdown[helix.PPR].Seconds()
	it.computed = res.StateCounts[helix.StateCompute]
	it.loaded = res.StateCounts[helix.StateLoad]
	it.pruned = res.StateCounts[helix.StatePrune]
	for _, n := range res.Nodes {
		switch n.State {
		case helix.StateCompute:
			it.computeS += n.Seconds
		case helix.StateLoad:
			it.loadS += n.Seconds
		}
		if n.MatSecs > 0 {
			it.bytesWritten += n.Bytes
		}
	}
}

// measure repeats reps for the given number of seconds (at least
// minReps of them) and counts every iteration as one operation.
func (h *harness) measure(seconds float64, minReps int, traced bool) ([]*repResult, error) {
	var reps []*repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r, err := h.rep(traced)
		if err != nil {
			return nil, err
		}
		for _, it := range r.iters {
			h.attempted++
			if it.failed {
				h.failed++
			}
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// stepTimes returns, per schedule step, the median over reps of that
// step's Session.Run time at reference speed. Reducing by step first
// keeps a metric from hopping between steps of different cost when their
// samples interleave.
func stepTimes(reps []*repResult) []float64 {
	out := make([]float64, len(reps[0].iters))
	for i := range out {
		out[i] = summarize("", perRep(reps, func(r *repResult) float64 { return r.iters[i].refWall() })).Value
	}
	return out
}

// endToEnd reduces untraced reps to the seven end-to-end metrics. The
// time of a step is its median over reps; cum_run_s is the sum over
// steps, and a tag's metric the median over the steps with that tag. The
// quartiles and counts beside them are over every sample.
func (h *harness) endToEnd(reps []*repResult) map[string]metric {
	steps := stepTimes(reps)
	byTag, samples := map[string][]float64{}, map[string][]float64{}
	for i, it := range reps[0].iters {
		byTag[it.tag] = append(byTag[it.tag], steps[i])
		for _, r := range reps {
			samples[it.tag] = append(samples[it.tag], r.iters[i].refWall())
		}
	}
	tagged := func(unit string, perSecond float64, tag string) metric {
		m := scaled(unit, perSecond, samples[tag])
		m.Value = perSecond * summarize("", byTag[tag]).Value
		return m
	}
	cum := summarize("s", perRep(reps, sumIters((*iterSample).refWall)))
	cum.Value = sum(steps)
	return map[string]metric{
		"setup_s":           summarize("s", h.setupS),
		"cum_run_s":         cum,
		"cold_run_s":        tagged("s", 1, tagCold),
		"iter_big_p50_s":    tagged("s", 1, tagBig),
		"iter_small_p50_ms": tagged("ms", 1e3, tagSmall),
		"peak_heap_mb":      scaled("MB", 1e-6, perRep(reps, func(r *repResult) float64 { return r.peakHeap })),
		"store_mb":          scaled("MB", 1e-6, perRep(reps, func(r *repResult) float64 { return float64(r.storeBytes) })),
	}
}

// newScratch creates the directory all session directories live in, and
// asks the filesystem to treat it as a top-level directory (chattr +T),
// so that each session directory is placed in a block group of its own
// choosing instead of next to its siblings.
//
// Why: an ext4 without a journal does not reuse an inode deleted in the
// last minutes and walks past all of them on every create. Reps delete
// thousands of files, so in one block group a create cost 30 µs in a
// rested filesystem and 450 µs after a few runs — measured here — and
// every store write inherited the difference. Best effort: on another
// filesystem the flag does not exist and nothing is lost.
func newScratch() (string, error) {
	dir, err := os.MkdirTemp("", "helix-bench-")
	if err != nil {
		return "", err
	}
	if d, err := os.Open(dir); err == nil {
		const getFlags, setFlags, topDir = 0x80086601, 0x40086602, 0x00020000 // FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL
		var flags int
		if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); errno == 0 {
			flags |= topDir
			syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
		}
		d.Close()
	}
	return dir, nil
}
