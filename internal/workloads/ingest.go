package workloads

import (
	"context"
	"fmt"
	"math"
	"time"

	"helix"
	"helix/internal/clock"
)

// Ingest is the continuous-ingest workload: the paper's mini-batch
// streaming adaptation (§5.3) grown into a windowed pipeline whose DAG
// topology never changes across ticks. It keeps Window batch slots, each
// a batch→parse→feat chain over one mini-batch of rows, all feeding a
// windowed suffix (window synthesizer → model learner → metrics reducer,
// the declared output).
//
// Node names are stable — batch0..batchW-1, parse<i>, feat<i>, window,
// model, metrics — so across ticks only operator params change. A
// delivered batch enters its slot's SOURCE params, marking exactly that
// slot's chain original and dirtying the windowed suffix downstream; the
// other W-1 slots are byte-identical and reusable from the store. That
// is precisely the shape intermediate reuse exploits: a delivery tick
// recomputes one slot chain and the suffix and loads the rest, and a
// quiet tick following a tick that computed nothing is a full plan-cache
// fingerprint hit.
//
// Operator bodies sleep for a few milliseconds of simulated compute on the
// run's clock (the values themselves are cheap deterministic arithmetic),
// so loading a materialized slot (~1 ms at the paper's 170 MB/s disk)
// genuinely beats recomputing it and the solver's load-vs-compute
// trade-off is real.
type Ingest struct {
	window int
	rows   int
	// batch holds the current batch id per slot; Deliver bumps one.
	batch []int
	// sliding switches the window semantics: Slide evicts the oldest
	// slot (a ring buffer) and the synthesizer concatenates slots in
	// arrival order. head indexes the oldest slot.
	sliding bool
	head    int
}

// Per-operator simulated compute costs. Parse and feat dominate so that
// reusing a clean slot (one ~1 ms load instead of sleepParse+sleepFeat of
// compute) yields visible per-tick savings.
const (
	sleepSource  = 2 * time.Millisecond
	sleepParse   = 3 * time.Millisecond
	sleepFeat    = 4 * time.Millisecond
	sleepWindow  = 3 * time.Millisecond
	sleepModel   = 5 * time.Millisecond
	sleepMetrics = time.Millisecond
)

// NewIngest returns an ingest pipeline with the given number of batch
// slots (minimum 2), every slot initially holding batch id 0. Scale.Rows
// multiplies the per-batch row count (base 4000 floats ≈ 32 KB
// materialized, so a load costs ~1 ms against several ms of compute).
func NewIngest(window int, scale Scale) *Ingest {
	if window < 2 {
		window = 2
	}
	return &Ingest{
		window: window,
		rows:   scale.rows(4000),
		batch:  make([]int, window),
	}
}

// NewSlidingIngest returns the sliding-window variant of the pipeline:
// instead of a delivery replacing a schedule-chosen slot in place
// (tumbling), each Slide evicts the oldest batch from a ring of Window
// slots and the window synthesizer concatenates the slots oldest-first.
// The slot chains keep their stable names, so a slide still dirties
// exactly one source chain; only the synthesizer's param (which records
// the ring's head) changes besides it, which is what keeps the other
// slot chains loadable on every slide.
func NewSlidingIngest(window int, scale Scale) *Ingest {
	g := NewIngest(window, scale)
	g.sliding = true
	return g
}

// Mode reports the window semantics: "tumbling" or "sliding".
func (g *Ingest) Mode() string {
	if g.sliding {
		return "sliding"
	}
	return "tumbling"
}

// Deliver records the arrival of a new batch in the given slot; the next
// Build reflects it. Batch ids need only be distinct per slot over time.
// Sliding-window pipelines use Slide instead.
func (g *Ingest) Deliver(slot, batchID int) {
	g.batch[slot%g.window] = batchID
}

// Slide pushes a new batch into a sliding window: the oldest slot is
// overwritten in place and the ring head advances, so the W-1 surviving
// batches keep their slot (and their materialized chain) byte-identical.
func (g *Ingest) Slide(batchID int) {
	g.batch[g.head] = batchID
	g.head = (g.head + 1) % g.window
}

// Build constructs the workflow for the slots' current batch ids.
func (g *Ingest) Build() *helix.Workflow {
	wf := helix.New("ingest")
	feats := make([]*helix.Op, g.window)
	for i := 0; i < g.window; i++ {
		slot, id, rows := i, g.batch[i], g.rows

		src := wf.Source(fmt.Sprintf("batch%d", i),
			fmt.Sprintf("ingest slot=%d batch=%d", i, id),
			func(ctx context.Context, in []helix.Value) (helix.Value, error) {
				clock.From(ctx).Sleep(sleepSource)
				return batchRows(slot, id, rows), nil
			})

		parse := wf.Scanner(fmt.Sprintf("parse%d", i), "decode v1",
			func(ctx context.Context, in []helix.Value) (helix.Value, error) {
				clock.From(ctx).Sleep(sleepParse)
				rows := in[0].([]float64)
				out := make([]float64, len(rows))
				for j, v := range rows {
					out[j] = math.Abs(v) * 0.5
				}
				return out, nil
			}, src)

		feats[i] = wf.Extractor(fmt.Sprintf("feat%d", i), "slot stats v1",
			func(ctx context.Context, in []helix.Value) (helix.Value, error) {
				clock.From(ctx).Sleep(sleepFeat)
				rows := in[0].([]float64)
				var sum, sq, mx float64
				for _, v := range rows {
					sum += v
					sq += v * v
					if v > mx {
						mx = v
					}
				}
				n := float64(len(rows))
				return []float64{sum / n, sq / n, mx, n}, nil
			}, parse)
	}

	// Tumbling windows concatenate slots in slot order with a fixed
	// param; sliding windows concatenate oldest-first. The rotation
	// happens inside the operator body — NOT by reordering the
	// synthesizer's parents — so the DAG topology is byte-stable across
	// slides and only the synthesizer's chain changes; the param records
	// the ring head, which is what carries the reordering into the chain
	// signature.
	winParam := fmt.Sprintf("tumbling w=%d v1", g.window)
	if g.sliding {
		winParam = fmt.Sprintf("sliding w=%d head=%d v1", g.window, g.head)
	}
	head := g.head
	sliding := g.sliding
	win := wf.Synthesizer("window", winParam,
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			clock.From(ctx).Sleep(sleepWindow)
			var out []float64
			for i := range in {
				j := i
				if sliding {
					j = (head + i) % len(in)
				}
				out = append(out, in[j].([]float64)...)
			}
			return out, nil
		}, feats...)

	model := wf.Learner("model", "ridge v1",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			clock.From(ctx).Sleep(sleepModel)
			f := in[0].([]float64)
			w := make([]float64, 4)
			for j, v := range f {
				w[j%4] += v / (1 + float64(j))
			}
			return w, nil
		}, win)

	wf.Reducer("metrics", "window eval v1",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			clock.From(ctx).Sleep(sleepMetrics)
			w := in[0].([]float64)
			var norm float64
			for _, v := range w {
				norm += v * v
			}
			return EvalReport{Metrics: map[string]float64{
				"norm":   math.Sqrt(norm),
				"window": float64(len(w)),
			}}, nil
		}, model).IsOutput()

	return wf
}

// batchRows generates the deterministic mini-batch for (slot, batch id):
// same ids, same bytes, so clean slots stay reusable across ticks.
func batchRows(slot, id, n int) []float64 {
	x := uint64(slot+1)*0x9E3779B97F4A7C15 ^ uint64(id+1)*0xBF58476D1CE4E5B9
	rows := make([]float64, n)
	for i := range rows {
		x = x*6364136223846793005 + 1442695040888963407
		rows[i] = float64(int64(x>>24)%2000)/10 - 100
	}
	return rows
}
