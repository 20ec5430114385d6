package exec

import (
	"context"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/store"
)

// countingCodec counts the values handed to the store's encoder.
type countingCodec struct {
	store.BinaryCodec
	encodes atomic.Int64
}

func (c *countingCodec) Encode(v any) ([]byte, error) {
	c.encodes.Add(1)
	return c.BinaryCodec.Encode(v)
}

// ingestProgram is the shape that used to pay for a discarded encode: a
// source that is large but costs microseconds, feeding an extractor
// expensive enough to keep. Algorithm 2 refuses the source whatever its
// size (C(lines) ≪ 2·l for any l ≥ the 1 ms seek), keeps the extractor,
// and the output is mandatory.
func ingestProgram() *Program {
	d := core.NewDAG()
	src := d.MustAddNode("lines", core.KindSource, core.DPR, "lines-v1", true)
	ext := d.MustAddNode("features", core.KindExtractor, core.DPR, "features-v1", true)
	red := d.MustAddNode("score", core.KindReducer, core.PPR, "score-v1", true)
	mustEdge(d, src, ext)
	mustEdge(d, ext, red)
	d.MarkOutput(red)
	lines := make([]string, 50_000)
	for i := range lines {
		lines[i] = "row-" + strconv.Itoa(i)
	}
	return &Program{
		DAG: d,
		Fns: map[*core.Node]OpFunc{
			src: func(ctx context.Context, in []any) (any, error) { return lines, nil },
			ext: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(opDelay)
				return len(in[0].([]string)), nil
			},
			red: func(ctx context.Context, in []any) (any, error) { return float64(in[0].(int)) / 2, nil },
		},
	}
}

// TestRefusedValuesAreNeverSerialized: the engine asks the policy before
// it pays for the answer. Whatever the policy refuses on payoff alone is
// evicted without reaching the encoder — on a worker or on a writer
// goroutine — so the encoder sees exactly the artifacts that land, the
// materialization bill holds no dropped encode, and the materialized
// set is what it was when every value was serialized first.
func TestRefusedValuesAreNeverSerialized(t *testing.T) {
	var c counters
	cases := []struct {
		name    string
		prog    *Program
		policy  func() opt.MatPolicy
		outputs bool
		want    []string // materialized nodes, sorted
	}{
		{"cheap large source under StreamingOMP", ingestProgram(),
			func() opt.MatPolicy { return opt.NewStreamingOMP(-1) }, true, []string{"features", "score"}},
		{"NeverMat", testProgram(&c),
			func() opt.MatPolicy { return opt.NeverMat{} }, false, nil},
		{"NeverMat with mandatory outputs", testProgram(&c),
			func() opt.MatPolicy { return opt.NeverMat{} }, true, []string{"check"}},
	}
	for _, tc := range cases {
		for _, sync := range []bool{false, true} {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			codec := &countingCodec{}
			st.Codec = codec
			e := &Engine{Store: st, Opts: Options{
				Policy:              tc.policy(),
				MaterializeOutputs:  tc.outputs,
				SyncMaterialization: sync,
			}}
			res, err := e.Run(context.Background(), tc.prog, nil, 0)
			if err != nil {
				t.Fatalf("%s (sync=%v): %v", tc.name, sync, err)
			}
			var got []string
			for _, key := range st.Keys() {
				ent, _ := st.Entry(key)
				got = append(got, ent.Name)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s (sync=%v): materialized %v, want %v", tc.name, sync, got, tc.want)
			}
			if n := codec.encodes.Load(); n != int64(len(tc.want)) {
				t.Errorf("%s (sync=%v): %d values serialized for %d artifacts written", tc.name, sync, n, len(tc.want))
			}
			var bill time.Duration
			for name, rep := range res.Nodes {
				if slices.Contains(tc.want, name) {
					bill += time.Duration(rep.MatSecs * float64(time.Second))
				} else if rep.MatSecs != 0 {
					t.Errorf("%s (sync=%v): %s was refused yet billed %.6fs of materialization", tc.name, sync, name, rep.MatSecs)
				}
			}
			if res.MatTime != bill {
				t.Errorf("%s (sync=%v): MatTime %v, the written artifacts account for %v", tc.name, sync, res.MatTime, bill)
			}
		}
	}
}
