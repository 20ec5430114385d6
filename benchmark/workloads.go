package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"helix"
	"helix/internal/core"
	"helix/internal/workloads"
)

// Iteration tags: what the developer did before this Session.Run.
const (
	tagCold  = "cold"  // iteration 0: nothing to reuse
	tagBig   = "big"   // an edit that forces substantial recomputation
	tagSmall = "small" // an edit that should cost almost nothing
)

// workload is one named iteration schedule. The names are fixed: later
// issues cite them.
type workload struct {
	name string
	why  string
	// approx marks a workload whose outputs legitimately differ between
	// runs (mnist draws a fresh random projection per run): outputs are
	// checked for shape and accuracy instead of byte equality.
	approx bool
	// prepare generates the workload's inputs from the seed — the only
	// place the seed reaches — and returns a factory of fresh instances
	// over those inputs.
	prepare func(seed int64, quick bool) func(env opEnv) instance
}

// opEnv is what a bench-owned operator body sees of the harness: the
// tracer (nil when tracing is off) and the step whose output the test
// suite asks to be corrupted (-1 for none).
type opEnv struct {
	tr        *tracer
	faultStep int
}

// instance is one developer's pass over a schedule. workflow must be
// called with i = 0, 1, 2, … in order: edits are cumulative.
type instance interface {
	tags() []string
	workflow(i int) *helix.Workflow
}

var allWorkloads = []workload{
	{
		name: "census-iter",
		why:  "reuse-heavy paper schedule: store read/decode, write-behind and session overhead all sit on the blocking path",
		prepare: func(seed int64, quick bool) func(opEnv) instance {
			rows := 5
			if quick {
				rows = 1
			}
			return func(opEnv) instance {
				return newPaperInstance(workloads.NewCensus(workloads.Scale{Rows: rows}, seed),
					map[int]bool{1: true, 2: true, 5: true})
			}
		},
	},
	{
		name:   "mnist-iter",
		why:    "bypass workload: compute-bound, nothing worth loading, so planner, codec and store changes must predict no change",
		approx: true,
		prepare: func(seed int64, quick bool) func(opEnv) instance {
			return func(opEnv) instance {
				p := newPaperInstance(workloads.NewMNIST(workloads.Scale{Rows: 1}, seed),
					map[int]bool{1: true, 2: true, 3: true, 5: true, 6: true, 8: true})
				if quick {
					// The generator has no smaller scale; a smoke run stops
					// after the first small iteration.
					p.seq, p.tagv = p.seq[:5], p.tagv[:5]
					return p
				}
				// A rep takes 3.4 s and the paper schedule has three small
				// iterations of about 1 ms: too few samples for a steady
				// median. Twelve more PPR edits cost 10 ms. All but the
				// first flip the reducer back to a version the session has
				// already run, so three quarters of the small samples are
				// of one kind and the median sits inside it.
				for i := 0; i < 12; i++ {
					p.seq, p.tagv = append(p.seq, core.PPR), append(p.tagv, tagSmall)
				}
				return p
			}
		},
	},
	{
		name:    "rowstream-ingest",
		why:     "write-heavy use of the store and the only workload on the fused RowOp executor; decides peak_heap_mb",
		prepare: prepareRowstream,
	},
	{
		name:    "plan-wide",
		why:     "1000-node DAG: the only workload where plan/opt/maxflow, the ready queue and many tiny artifacts dominate",
		prepare: preparePlanWide,
	},
}

// paperInstance drives one of the paper's workloads (internal/workloads)
// through its own Sequence: iteration t ≥ 1 first applies the schedule's
// mutation for t, exactly as sim.RunSeries does.
type paperInstance struct {
	wl   workloads.Workload
	seq  []core.Component
	tagv []string
}

func newPaperInstance(wl workloads.Workload, big map[int]bool) *paperInstance {
	p := &paperInstance{wl: wl, seq: wl.Sequence()}
	for i := range p.seq {
		switch {
		case i == 0:
			p.tagv = append(p.tagv, tagCold)
		case big[i]:
			p.tagv = append(p.tagv, tagBig)
		default:
			p.tagv = append(p.tagv, tagSmall)
		}
	}
	return p
}

func (p *paperInstance) tags() []string { return p.tagv }

func (p *paperInstance) workflow(i int) *helix.Workflow {
	if i > 0 {
		p.wl.Mutate(i, p.seq[i])
	}
	return p.wl.Build()
}

// ---- rowstream-ingest -------------------------------------------------

// rowstreamTags is the schedule: cold; keep.min edit; reducer edit;
// norm.scale edit; reducer edit; keep.min edit; reducer edit.
var rowstreamTags = []string{tagCold, tagBig, tagSmall, tagBig, tagSmall, tagBig, tagSmall}

type rowstream struct {
	env   opEnv
	lines []string
	seed  int64
	// knobs
	keepMin   float64
	normScale float64
	withMax   bool
}

func prepareRowstream(seed int64, quick bool) func(opEnv) instance {
	rows := 300_000
	if quick {
		rows = 5_000
	}
	lines := genLines(rows, seed)
	return func(env opEnv) instance {
		return &rowstream{env: env, lines: lines, seed: seed, keepMin: 0.18, normScale: 0.01}
	}
}

// genLines synthesizes CSV lines shaped like the adult-census extract:
// age,hours,wage,class.
func genLines(rows int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	classes := [4]string{"private", "gov", "self", "other"}
	out := make([]string, rows)
	var b strings.Builder
	for i := range out {
		b.Reset()
		b.WriteString(strconv.Itoa(17 + rng.Intn(70)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(1 + rng.Intn(99)))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(float64(rng.Intn(100000))/100, 'f', 2, 64))
		b.WriteByte(',')
		b.WriteString(classes[rng.Intn(4)])
		out[i] = b.String()
	}
	return out
}

func (r *rowstream) tags() []string { return rowstreamTags }

func (r *rowstream) workflow(i int) *helix.Workflow {
	switch i {
	case 1:
		r.keepMin = 0.25
	case 3:
		r.normScale = 0.02
	case 5:
		r.keepMin = 0.3
	case 2, 4, 6:
		r.withMax = !r.withMax
	}
	env, lines := r.env, r.lines
	keepMin, normScale, withMax := r.keepMin, r.normScale, r.withMax
	fault := i == env.faultStep

	wf := helix.New("rowstream-ingest")
	src := wf.Source("lines", fmt.Sprintf("rows=%d seed=%d", len(lines), r.seed),
		env.tr.wrap("lines", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			return lines, nil
		}))
	parse := helix.FlatMapRows(wf, "parse", "fields=age,hours,wage", func(line string) []float64 {
		out := make([]float64, 0, 3)
		for k := 0; k < 3; k++ {
			f, rest, _ := strings.Cut(line, ",")
			v, _ := strconv.ParseFloat(f, 64)
			out = append(out, v)
			line = rest
		}
		return out
	}, src)
	norm := helix.MapRows(wf, "norm", fmt.Sprintf("scale=%g", normScale), func(v float64) float64 {
		return v * normScale
	}, parse)
	keep := helix.FilterRows(wf, "keep", fmt.Sprintf("min=%g", keepMin), func(v float64) bool {
		return v > keepMin
	}, norm)
	wf.Reducer("stats", fmt.Sprintf("sum,count,mean max=%t", withMax),
		env.tr.wrap("stats", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			vs, _ := in[0].([]float64)
			var sum, max float64
			for _, v := range vs {
				sum += v
				if v > max {
					max = v
				}
			}
			out := []float64{float64(len(vs)), sum, 0}
			if len(vs) > 0 {
				out[2] = sum / float64(len(vs))
			}
			if withMax {
				out = append(out, max)
			}
			if fault {
				out[0]++
			}
			return out, nil
		}), keep).IsOutput()
	return wf
}

// ---- plan-wide --------------------------------------------------------

const planWideValueLen = 4096 // float64s per node output: 32 KiB

type planWideShape struct {
	layers, width, fanIn, cycles int
	spin                         []time.Duration // per node, seeded
}

type planWide struct {
	env     opEnv
	shape   *planWideShape
	tagv    []string
	version []int // per node: bumped by an edit
	edits   int
}

func preparePlanWide(seed int64, quick bool) func(opEnv) instance {
	sh := &planWideShape{layers: 50, width: 20, fanIn: 5, cycles: 2}
	if quick {
		sh = &planWideShape{layers: 6, width: 5, fanIn: 3, cycles: 1}
	}
	rng := rand.New(rand.NewSource(seed))
	sh.spin = make([]time.Duration, sh.layers*sh.width)
	for i := range sh.spin {
		sh.spin[i] = time.Duration(50+rng.Intn(201)) * time.Microsecond
	}
	tagv := []string{tagCold}
	for c := 0; c < sh.cycles; c++ {
		// no-op, leaf edit, leaf edit, mid-layer edit, no-op, layer-0 edit
		tagv = append(tagv, tagSmall, tagSmall, tagSmall, tagBig, tagSmall, tagBig)
	}
	return func(env opEnv) instance {
		return &planWide{env: env, shape: sh, tagv: tagv, version: make([]int, len(sh.spin))}
	}
}

func (p *planWide) tags() []string { return p.tagv }

func (p *planWide) workflow(i int) *helix.Workflow {
	sh := p.shape
	if i > 0 {
		layer := -1
		switch (i - 1) % 6 {
		case 1, 2:
			layer = sh.layers - 1
		case 3:
			layer = sh.layers / 2
		case 5:
			layer = 0
		}
		if layer >= 0 {
			p.version[layer*sh.width+p.edits%sh.width]++
			p.edits++
		}
	}
	fault := i == p.env.faultStep

	wf := helix.New("plan-wide")
	prev := make([]*helix.Op, sh.width)
	cur := make([]*helix.Op, sh.width)
	for l := 0; l < sh.layers; l++ {
		for w := 0; w < sh.width; w++ {
			id := l*sh.width + w
			name := fmt.Sprintf("n%d_%d", l, w)
			params := fmt.Sprintf("v%d", p.version[id])
			body := p.env.tr.wrap(name, spinOp(sh.spin[id], float64(id+1000*p.version[id]), fault && l == sh.layers-1 && w == 0))
			if l == 0 {
				cur[w] = wf.Source(name, params, body)
				continue
			}
			ins := make([]*helix.Op, sh.fanIn)
			for k := range ins {
				ins[k] = prev[(w+k)%sh.width]
			}
			cur[w] = wf.Extractor(name, params, body, ins...)
			if l == sh.layers-1 {
				cur[w].IsOutput()
			}
		}
		prev, cur = cur, prev
	}
	return wf
}

// spinOp is plan-wide's operator body: emit a vector that depends on
// every input and on the node's own version, then burn the CPU work that
// takes d on a host at reference speed.
func spinOp(d time.Duration, salt float64, fault bool) helix.Func {
	return func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		out := make([]float64, planWideValueLen)
		for j := range out {
			out[j] = salt + float64(j)
		}
		for _, v := range in {
			for j, x := range v.([]float64) {
				out[j] += 0.5 * x
			}
		}
		if fault {
			out[0]++
		}
		if spin(int(float64(d.Nanoseconds())/referenceStepNs)) < 0 {
			return nil, fmt.Errorf("spin returned a negative number")
		}
		return out, nil
	}
}
