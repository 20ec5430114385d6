package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"helix"
	"helix/internal/core"
	"helix/internal/exec"
	"helix/internal/maxflow"
	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// storeView adapts a store to the planner's read-only view, as the
// engine's own (unexported) adapter does.
type storeView struct{ st *store.Store }

func (v storeView) Lookup(key string) (int64, bool) {
	ent, ok := v.st.Entry(key)
	return ent.Size, ok
}

func (v storeView) EstimateLoad(size int64) time.Duration { return v.st.EstimateLoad(size) }

// timeN calls fn(i) n times and returns each call's seconds.
func timeN(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = time.Since(start).Seconds()
	}
	return out
}

// scaled summarizes samples in seconds as a metric in a smaller unit.
func scaled(unit string, perSecond float64, secs []float64) metric {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s * perSecond
	}
	return summarize(unit, out)
}

// throughput summarizes samples in seconds as work per second.
func throughput(unit string, work float64, secs []float64) metric {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = ratio(work, s)
	}
	return summarize(unit, out)
}

// layerMicro times each layer's public functions directly, on the
// workload's own DAG and artifacts: an engine-level cold execution of
// the schedule's first version, a run of its second-to-last version
// against that, and then planning its last version — the situation a
// small edit puts the planner in.
func (h *harness) layerMicro() (map[string]metric, error) {
	n := 15
	if h.quick {
		n = 3
	}
	m := map[string]metric{}

	inst := h.fresh(opEnv{faultStep: -1})
	var wfs []*helix.Workflow
	for i := range inst.tags() {
		wfs = append(wfs, inst.workflow(i))
	}
	last := len(wfs) - 1
	compile := func(wf *helix.Workflow) *exec.Program {
		prog, err := wf.Compile()
		if err != nil {
			panic(err) // every version compiled in set-up already
		}
		return prog
	}

	dir, err := os.MkdirTemp(h.scratch, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "engine"))
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// exec: a prebuilt cold plan executed without planning or session.
	eng := exec.New(st, helix.DefaultStorageBudget)
	prog0 := compile(wfs[0])
	p0, err := eng.Plan(prog0.DAG, nil, 0)
	if err != nil {
		return nil, err
	}
	m["exec.execute_s"] = summarize("s", timeN(1, func(int) { _, err = eng.Execute(h.ctx, prog0, p0) }))
	if err != nil {
		return nil, err
	}
	progPrev := compile(wfs[last-1])
	if _, err := eng.Run(h.ctx, progPrev, prog0.DAG, 1); err != nil {
		return nil, err
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}
	prev := progPrev.DAG
	m["core.nodes"] = scalar("count", float64(prev.Len()))

	// core: change tracking of the last version against the previous one.
	dags := func(wf *helix.Workflow) []*core.DAG {
		out := make([]*core.DAG, n)
		for i := range out {
			out[i] = compile(wf).DAG
		}
		return out
	}
	ds := dags(wfs[last])
	m["core.signatures_ms"] = scaled("ms", 1e3, timeN(n, func(i int) {
		ds[i].ComputeSignatures()
		ds[i].OriginalNodes(prev)
	}))

	// plan: the same planner configuration a default session uses.
	newPlanner := func(cache *plan.Cache) *plan.Planner {
		return &plan.Planner{View: storeView{st}, Solver: new(opt.Solver), Cache: cache,
			Opts: plan.Options{MaterializeOutputs: true, Streaming: true}}
	}
	cold, ds := newPlanner(nil), dags(wfs[last])
	var coldPlan *plan.Plan
	m["plan.cold_ms"] = scaled("ms", 1e3, timeN(n, func(i int) { coldPlan, err = cold.Plan(ds[i], prev, 2) }))
	if err != nil {
		return nil, err
	}
	coldDAG := ds[n-1]

	cached := newPlanner(plan.NewCache("benchmark"))
	if _, err := cached.Plan(compile(wfs[last]).DAG, prev, 2); err != nil {
		return nil, err
	}
	ds = dags(wfs[last])
	m["plan.hit_ms"] = scaled("ms", 1e3, byOutcome(plan.CacheHit, timeOutcomes(cached, ds, prev)))
	// Alternating the last two versions makes every call differ from the
	// cached plan in the nodes the last edit touched: a partial re-solve,
	// when the two share a topology.
	alt, altPrev := dags(wfs[last]), dags(wfs[last-1])
	for i := 0; i < n; i += 2 {
		alt[i] = altPrev[i]
	}
	m["plan.partial_ms"] = scaled("ms", 1e3, byOutcome(plan.CachePartial, timeOutcomes(cached, alt, prev)))

	// opt: the solver alone, on the cold plan's costs.
	costs := make(map[*core.Node]opt.Costs)
	for _, np := range coldPlan.Nodes {
		if np.Live {
			costs[np.Node] = np.Costs
		}
	}
	solver := new(opt.Solver)
	m["opt.solve_ms"] = scaled("ms", 1e3, timeN(n, func(int) { solver.OptimalStates(coldDAG, costs) }))
	m["opt.greedy_ms"] = scaled("ms", 1e3, timeN(n, func(int) { opt.GreedyStates(coldDAG, costs) }))

	h.maxflowMicro(m, n)
	if err := h.dispatchMicro(m, n, prog0.DAG, filepath.Join(dir, "dispatch")); err != nil {
		return nil, err
	}
	if err := h.rowopMicro(m, n); err != nil {
		return nil, err
	}
	if err := h.storeMicro(m, st, dir); err != nil {
		return nil, err
	}
	return m, nil
}

type timedOutcome struct {
	secs    float64
	outcome plan.CacheOutcome
}

// timeOutcomes plans each DAG in turn and records how the cache answered.
func timeOutcomes(pl *plan.Planner, ds []*core.DAG, prev *core.DAG) []timedOutcome {
	out := make([]timedOutcome, len(ds))
	for i, d := range ds {
		start := time.Now()
		p, err := pl.Plan(d, prev, 2)
		out[i].secs = time.Since(start).Seconds()
		if err == nil {
			out[i].outcome = p.Cache
		} else {
			out[i].outcome = -1
		}
	}
	return out
}

// byOutcome keeps the samples the cache answered in the given way; none
// means the workload never produces that outcome here, reported as 0.
func byOutcome(want plan.CacheOutcome, ts []timedOutcome) []float64 {
	var out []float64
	for _, t := range ts {
		if t.outcome == want {
			out = append(out, t.secs)
		}
	}
	return out
}

// maxflowMicro solves a project-selection network of plan-wide's size
// (50 × 20 nodes, fan-in 5, two projects per node) with seeded profits;
// it is the same for every workload.
func (h *harness) maxflowMicro(m map[string]metric, n int) {
	const layers, width, fanIn = 50, 20, 5
	rng := rand.New(rand.NewSource(1))
	projects := 2 * layers * width
	s, t := projects, projects+1
	profit := make([]float64, projects)
	for i := range profit {
		profit[i] = rng.Float64()*2 - 1
	}
	g := maxflow.New(projects + 2)
	edges := 0
	build := func() {
		g.Reset(projects + 2)
		edges = 0
		add := func(u, v int, c float64) { g.AddEdge(u, v, c); edges++ }
		for i, p := range profit {
			if p > 0 {
				add(s, i, p)
			} else {
				add(i, t, -p)
			}
		}
		for l := 0; l < layers; l++ {
			for w := 0; w < width; w++ {
				i := l*width + w
				add(2*i+1, 2*i, maxflow.Inf)
				if l == 0 {
					continue
				}
				for k := 0; k < fanIn; k++ {
					add(2*i+1, 2*((l-1)*width+(w+k)%width), maxflow.Inf)
				}
			}
		}
	}
	secs := make([]float64, n)
	for i := range secs {
		build()
		start := time.Now()
		g.MaxFlow(s, t)
		secs[i] = time.Since(start).Seconds()
	}
	m["maxflow.solve_ms"] = scaled("ms", 1e3, secs)
	m["maxflow.edges"] = scalar("count", float64(edges))
}

// dispatchMicro executes an all-compute plan over the workload's own
// topology with no-op operators and nothing materialized: what is left
// is the scheduler's cost of getting a node to a worker and retiring it.
func (h *harness) dispatchMicro(m map[string]metric, n int, src *core.DAG, dir string) error {
	d := core.NewDAG()
	prog := &exec.Program{DAG: d, Fns: map[*core.Node]exec.OpFunc{}}
	twin := map[*core.Node]*core.Node{}
	for _, sn := range src.TopoSort() {
		c, err := d.AddNode(sn.Name, sn.Kind, sn.Component, sn.OpSignature, true)
		if err != nil {
			return err
		}
		twin[sn] = c
		for _, p := range sn.Parents() {
			if err := d.AddEdge(twin[p], c); err != nil {
				return err
			}
		}
		prog.Fns[c] = func(context.Context, []any) (any, error) { return 0, nil }
	}
	for _, o := range src.Outputs() {
		d.MarkOutput(twin[o])
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	eng := &exec.Engine{Store: st, Opts: exec.Options{Policy: opt.NeverMat{}}}
	p, err := eng.Plan(d, nil, 0)
	if err != nil {
		return err
	}
	secs := timeN(n, func(int) { _, err = eng.Execute(h.ctx, prog, p) })
	m["exec.dispatch_us_per_node"] = scaled("us", 1e6/float64(d.Len()), secs)
	return err
}

// rowopMicro pushes rows through one MapRows operator's RowOp in batch
// mode; it is the same for every workload.
func (h *harness) rowopMicro(m map[string]metric, n int) error {
	rows := 1_000_000
	if h.quick {
		rows = 10_000
	}
	in := make([]float64, rows)
	for i := range in {
		in[i] = float64(i)
	}
	wf := helix.New("rowop")
	src := wf.Source("in", "", func(context.Context, []helix.Value) (helix.Value, error) { return in, nil })
	op := helix.MapRows(wf, "double", "", func(v float64) float64 { return 2 * v }, src)
	prog, err := wf.Compile()
	if err != nil {
		return err
	}
	row := prog.Rows[prog.DAG.Node(op.Name())]
	secs := timeN(n, func(int) { _, err = exec.RunRowOp(h.ctx, row, []any{in}) })
	m["exec.rowop_mrows_per_s"] = throughput("Mrows/s", float64(rows)/1e6, secs)
	return err
}

// storeMicro times the codec and the store on the largest artifact the
// engine-level runs left in st, and on 32 KiB values (plan-wide's node
// output size).
func (h *harness) storeMicro(m map[string]metric, st *store.Store, dir string) error {
	n, smallN := 5, 200
	if h.quick {
		n, smallN = 2, 10
	}
	var key string
	var size int64 = -1
	for _, k := range st.Keys() {
		if ent, _ := st.Entry(k); ent.Size > size {
			key, size = k, ent.Size
		}
	}
	if size < 0 {
		return fmt.Errorf("no artifact in the engine store")
	}
	val, _, err := st.Get(key)
	if err != nil {
		return err
	}
	codec := store.BinaryCodec{}
	var data []byte
	encode := timeN(n, func(int) { data, err = codec.Encode(val) })
	if err != nil {
		return err
	}
	mb := float64(len(data)) / 1e6
	m["store.encode_mb_per_s"] = throughput("MB/s", mb, encode)
	m["store.decode_mb_per_s"] = throughput("MB/s", mb, timeN(n, func(int) { _, err = codec.Decode(data) }))
	if err != nil {
		return err
	}

	fresh, err := store.Open(filepath.Join(dir, "fresh"))
	if err != nil {
		return err
	}
	defer fresh.Close()
	m["store.put_mb_per_s"] = throughput("MB/s", mb, timeN(n, func(i int) { _, err = fresh.Put(fmt.Sprint("big", i), "big", val, 0) }))
	if err != nil {
		return err
	}
	m["store.get_mb_per_s"] = throughput("MB/s", mb, timeN(n, func(i int) { _, _, err = fresh.Get(fmt.Sprint("big", i)) }))
	if err != nil {
		return err
	}
	// Small values go the way a default session writes them: handed to
	// the writer pool, one manifest update at the barrier.
	small := make([]float64, planWideValueLen)
	m["store.small_put_us"] = scaled("us", 1e6/float64(smallN), timeN(n, func(i int) {
		for k := 0; k < smallN; k++ {
			fresh.PutAsync(store.WriteRequest{Key: fmt.Sprint("small", i, "_", k), Name: "small", Value: small})
		}
		err = fresh.Flush()
	}))
	if err != nil {
		return err
	}
	m["store.small_get_us"] = scaled("us", 1e6, timeN(smallN, func(i int) { _, _, err = fresh.Get(fmt.Sprint("small0_", i)) }))
	if err != nil {
		return err
	}
	// Write-behind: hand over four copies of the large value, then wait
	// at the barrier, as a cold iteration's end does.
	m["store.putasync_flush_ms"] = scaled("ms", 1e3, timeN(n, func(i int) {
		for k := 0; k < 4; k++ {
			fresh.PutAsync(store.WriteRequest{Key: fmt.Sprint("async", i, "_", k), Name: "async", Value: val})
		}
		err = fresh.Flush()
	}))
	return err
}

// sessionStoreStats reopens a finished session's directory and reports
// what the schedule left there.
func sessionStoreStats(m map[string]metric, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	m["store.artifacts"] = scalar("count", float64(st.Len()))
	var stored, value int64
	for _, k := range st.Keys() {
		ent, _ := st.Entry(k)
		v, _, err := st.Get(k)
		if err != nil {
			return err
		}
		if b := valueBytes(v); b > 0 {
			stored += ent.Size
			value += b
		}
	}
	m["store.bytes_per_value_byte"] = scalar("ratio", ratio(float64(stored), float64(value)))
	return nil
}

// valueBytes is a value's in-memory payload size: its own estimate when
// it has one (the engine's Sizer), the element bytes of the two plain
// slice types the bench-owned workloads flow, and 0 (not counted)
// otherwise.
func valueBytes(v any) int64 {
	switch x := v.(type) {
	case exec.Sizer:
		return x.ApproxBytes()
	case []float64:
		return int64(8 * len(x))
	case []string:
		var b int64
		for _, s := range x {
			b += int64(len(s))
		}
		return b
	}
	return 0
}
