package exec

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/opt"
	"helix/internal/plan"
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
// evicted without reaching the encoder — on a worker (a run on a Biller
// writes inline) or on a writer goroutine — so the encoder sees exactly
// the artifacts that land, the materialization bill holds no dropped
// encode, and the materialized set is what it was when every value was
// serialized first.
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
		for _, inline := range []bool{false, true} {
			ctx := context.Background()
			if inline {
				ctx = clock.With(ctx, hostBiller{})
			}
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			codec := &countingCodec{}
			st.Codec = codec
			e := &Engine{Store: st, Opts: Options{
				Policy: tc.policy(),
				Plan:   plan.Options{MaterializeOutputs: tc.outputs, Streaming: true},
			}}
			res, err := e.Run(ctx, tc.prog, nil, 0)
			if err != nil {
				t.Fatalf("%s (inline=%v): %v", tc.name, inline, err)
			}
			var got []string
			for _, key := range st.Keys() {
				ent, _ := st.Entry(key)
				got = append(got, ent.Name)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s (inline=%v): materialized %v, want %v", tc.name, inline, got, tc.want)
			}
			if n := codec.encodes.Load(); n != int64(len(tc.want)) {
				t.Errorf("%s (inline=%v): %d values serialized for %d artifacts written", tc.name, inline, n, len(tc.want))
			}
			var bill time.Duration
			for name, rep := range res.Nodes {
				if slices.Contains(tc.want, name) {
					bill += time.Duration(rep.MatSecs * float64(time.Second))
				} else if rep.MatSecs != 0 {
					t.Errorf("%s (inline=%v): %s was refused yet billed %.6fs of materialization", tc.name, inline, name, rep.MatSecs)
				}
			}
			if res.MatTime != bill {
				t.Errorf("%s (inline=%v): MatTime %v, the written artifacts account for %v", tc.name, inline, res.MatTime, bill)
			}
		}
	}
}

// sizedInts reports its size cheaply, so Algorithm 2's size-dependent
// half is decided at retirement instead of after an encode.
type sizedInts []int

func (v sizedInts) ApproxBytes() int64 { return int64(8 * len(v)) }

// blob is a Sizer the codec below cannot serialize: the policy says yes
// before the encode fails.
type blob struct{ payload [256]byte }

func (*blob) ApproxBytes() int64 { return 256 }

// modesCodec encodes sizedInts as the []int it is and refuses *blob.
type modesCodec struct{ store.BinaryCodec }

func (c modesCodec) Encode(v any) ([]byte, error) {
	switch v := v.(type) {
	case sizedInts:
		return c.BinaryCodec.Encode([]int(v))
	case *blob:
		return nil, errors.New("blob is not serializable")
	}
	return c.BinaryCodec.Encode(v)
}

// modesProgram is lines → features → sized → blob → use → probe → score:
// a cheap source Algorithm 2 refuses, an extractor it keeps after a
// deferred decision (the size is learnt by encoding), a Sizer decided at
// retirement, a Sizer whose encode fails, and two more kept operators
// before the mandatory output. blob retires when use finishes; probe,
// which runs next at Parallelism 1, reports through released whether the
// blob's memory was reclaimable by then.
func modesProgram(released *atomic.Bool) *Program {
	d := core.NewDAG()
	names := []string{"lines", "features", "sized", "blob", "use", "probe", "score"}
	nodes := make([]*core.Node, len(names))
	for i, name := range names {
		kind, comp := core.KindExtractor, core.DPR
		switch name {
		case "lines":
			kind = core.KindSource
		case "score":
			kind, comp = core.KindReducer, core.PPR
		}
		nodes[i] = d.MustAddNode(name, kind, comp, name+"-v1", true)
		if i > 0 {
			mustEdge(d, nodes[i-1], nodes[i])
		}
	}
	d.MarkOutput(nodes[len(nodes)-1])
	var finalized atomic.Bool
	slow := func(f func(in any) any) OpFunc {
		return func(ctx context.Context, in []any) (any, error) {
			time.Sleep(opDelay)
			return f(in[0]), nil
		}
	}
	return &Program{DAG: d, Fns: map[*core.Node]OpFunc{
		nodes[0]: func(ctx context.Context, in []any) (any, error) { return []string{"a", "b", "c"}, nil },
		nodes[1]: slow(func(in any) any { return make([]int, 100*len(in.([]string))) }),
		nodes[2]: slow(func(in any) any { return sizedInts(in.([]int)) }),
		nodes[3]: slow(func(in any) any {
			b := &blob{}
			runtime.SetFinalizer(b, func(*blob) { finalized.Store(true) })
			return b
		}),
		nodes[4]: slow(func(in any) any { return len(in.(*blob).payload) }),
		nodes[5]: slow(func(in any) any {
			for deadline := time.Now().Add(2 * time.Second); !finalized.Load() && time.Now().Before(deadline); {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			released.Store(finalized.Load())
			return in.(int) + 1
		}),
		nodes[6]: slow(func(in any) any { return float64(in.(int)) }),
	}}
}

// racingPolicy plays another session attached to the same shared store:
// asked to Decide one of its victims — after retirement's Has check,
// before the store's write — it publishes that signature first, so this
// session's write is deduplicated.
type racingPolicy struct {
	*opt.StreamingOMP
	st      *store.Store
	victims []string
}

const racedPayload = "published by another session"

func (p racingPolicy) Decide(n *core.Node, cum, load float64) bool {
	ok := p.StreamingOMP.Decide(n, cum, load)
	if ok && slices.Contains(p.victims, n.Name) {
		if _, err := p.st.PutBytes(n.ChainSignature(), n.Name, []byte(racedPayload), 0); err != nil {
			panic(err)
		}
	}
	return ok
}

// TestRetireModesAgree: the run's clock selects who processes a retired
// value's write request, nothing else — the writer pool on the host's
// clock, the retiring worker on a Biller (hostBiller, which times nodes
// as the host does, so both runs decide alike). Under a budgeted
// StreamingOMP the two modes land the same artifacts, settle the same
// per-node bytes, materialization bill and carried sizes, leave no
// admission reserved in the store (a write of exactly the budget's
// headroom still fits after the value that failed to encode), and
// release every retired value at retirement —
// including the one whose encode failed. They differ only in what is
// known at retirement: an inline write reports its outcome in the
// NodeRetired event — the same outcome Result.Nodes settles on — a
// handed-off one reports unmaterialized. The raced case repeats all of it
// on a shared store where another session wins the publish of a Sizer
// (found when the request is picked up) and of a deferred decision (found
// by the write-once check): both modes adopt the artifact that is there,
// and nothing stays reserved for their own.
func TestRetireModesAgree(t *testing.T) {
	type settled struct {
		keys     []string
		bytes    map[string]int64
		billed   map[string]bool
		sizes    map[string]int64
		used     int64
		headroom bool
	}
	const budget = 1 << 20
	run := func(t *testing.T, inline, raced bool) settled {
		omp := opt.NewStreamingOMP(budget)
		var (
			st  *store.Store
			pol opt.MatPolicy = omp
			err error
		)
		if raced {
			if st, err = store.OpenShared(t.TempDir()); err == nil {
				pol = racingPolicy{omp, st, []string{"sized", "use"}}
			}
		} else {
			st, err = store.Open(t.TempDir())
		}
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		st.Codec = modesCodec{}
		retired := map[string]NodeEvent{}
		e := &Engine{Store: st, Opts: Options{
			Policy:      pol,
			Plan:        plan.Options{MaterializeOutputs: true, Streaming: true},
			Parallelism: 1,
			Observer: func(ev Event) {
				if ne, ok := ev.(NodeEvent); ok && ne.Phase == NodeRetired {
					retired[ne.Name] = ne
				}
			},
		}}
		var released atomic.Bool
		prog := modesProgram(&released)
		ctx := context.Background()
		if inline {
			ctx = clock.With(ctx, hostBiller{})
		}
		res, err := e.Run(ctx, prog, nil, 0)
		if err != nil {
			t.Fatalf("inline=%v: %v", inline, err)
		}
		if !released.Load() {
			t.Errorf("inline=%v: blob's value was still referenced after it retired", inline)
		}
		out := settled{bytes: map[string]int64{}, billed: map[string]bool{}, sizes: map[string]int64{}, used: st.UsedBytes()}
		fill := store.WriteRequest{Key: "headroom", Data: make([]byte, budget-out.used), Budget: budget}
		out.headroom = st.Write(fill).Written
		if err := st.Delete(fill.Key); err != nil {
			t.Fatal(err)
		}
		for _, key := range st.Keys() {
			ent, _ := st.Entry(key)
			out.keys = append(out.keys, ent.Name)
		}
		slices.Sort(out.keys)
		for name, rep := range res.Nodes {
			out.bytes[name] = rep.Bytes
			out.billed[name] = rep.MatSecs > 0
			out.sizes[name] = prog.DAG.Node(name).Metrics.Size
			// Known at retirement only inline, and then it is what settles.
			wantMat, wantBytes := inline && rep.Bytes > 0, int64(0)
			if inline {
				wantBytes = rep.Bytes
			}
			if ev := retired[name]; ev.Materialized != wantMat || ev.Bytes != wantBytes {
				t.Errorf("inline=%v: NodeRetired(%s) reported materialized=%v bytes=%d, want %v and %d (Result.Nodes settled on %d bytes)",
					inline, name, ev.Materialized, ev.Bytes, wantMat, wantBytes, rep.Bytes)
			}
		}
		return out
	}
	for _, raced := range []bool{false, true} {
		t.Run(map[bool]string{false: "uncontended", true: "raced"}[raced], func(t *testing.T) {
			async, inline := run(t, false, raced), run(t, true, raced)
			if want := []string{"features", "probe", "score", "sized", "use"}; !slices.Equal(async.keys, want) {
				t.Errorf("write-behind materialized %v, want %v", async.keys, want)
			}
			if async.bytes["blob"] != 0 || async.sizes["blob"] != 0 || async.bytes["lines"] != 0 {
				t.Errorf("the unserializable value settled as %d bytes (carried size %d) and the refused source as %d, want not materialized",
					async.bytes["blob"], async.sizes["blob"], async.bytes["lines"])
			}
			// What the ledger holds: the bytes of each artifact that landed,
			// whoever wrote it — nothing for blob, and no reservation for
			// any write, so the headroom write fits.
			var stored int64
			for _, name := range async.keys {
				stored += async.bytes[name]
			}
			if async.used != stored || !async.headroom {
				t.Errorf("write-behind ledger holds %d B for %d B of artifacts; a write of the remaining budget fits: %v",
					async.used, stored, async.headroom)
			}
			if raced {
				for _, name := range []string{"sized", "use"} {
					if got := async.bytes[name]; got != int64(len(racedPayload)) || async.sizes[name] != got {
						t.Errorf("%s settled as %d bytes (carried size %d), want the %d of the artifact that won the publish",
							name, got, async.sizes[name], len(racedPayload))
					}
				}
			}
			if !reflect.DeepEqual(async, inline) {
				t.Errorf("the two modes settled differently:\nwrite-behind %+v\ninline       %+v", async, inline)
			}
		})
	}
}
