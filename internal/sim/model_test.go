package sim

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"helix"
	"helix/internal/clock"
	"helix/internal/core"
)

var calibrate = flag.Bool("calibrate", false, "run the reference run on the host clock and print chargePerByte's constants")

// recorder is a host-clock Biller for the reference run: it bills nothing
// and records the bytes of every computed node, so the engine runs the
// reference serially (as it runs a model) and the node's measured seconds
// exclude the sizing.
type recorder struct {
	clock.Real
	sizes *model
	bytes map[*core.Node]int64
}

func (r *recorder) Bill(n *core.Node, inputs []any, output any) time.Duration {
	r.bytes[n] = r.sizes.bytes(n, inputs, output)
	return 0
}

// TestCalibrateCharges is the reference run chargePerByte's constants come
// from: every operator of the four figure workloads recomputed on every
// iteration of the paper schedule (reuse and materialization off, no
// slowdown, no throttle), timed on the host clock, summed per operator.
// Skipped unless -calibrate. Its output is one sample: consecutive runs of
// one unchanged tree differ by up to 3.2× per operator, so one run must
// never be pasted over chargePerByte's cases. Constants come from the
// median of at least five runs, each normalized by a fixed reference loop
// (ROADMAP item 10(a)).
func TestCalibrateCharges(t *testing.T) {
	if !*calibrate {
		t.Skip("reference run: pass -calibrate")
	}
	type sum struct {
		runs    int
		seconds float64
		bytes   int64
	}
	sums := map[string]*sum{}
	rec := &recorder{sizes: newModel(HelixOpt)}
	ctx := clock.With(context.Background(), rec)
	for _, name := range figureWorkloads() {
		wl, err := NewWorkload(name, paperScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.PolicyNever), helix.WithReuse(false))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range wl.Sequence() {
			if i > 0 {
				wl.Mutate(i, c)
			}
			rec.bytes = map[*core.Node]int64{}
			res, err := sess.Run(ctx, wl.Build())
			if err != nil {
				t.Fatal(err)
			}
			for n, b := range rec.bytes {
				key := operatorKey(n)
				s := sums[key]
				if s == nil {
					s = &sum{}
					sums[key] = s
				}
				s.runs++
				s.seconds += res.Nodes[n.Name].Seconds
				s.bytes += b
			}
		}
		sess.Close()
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out strings.Builder
	for _, k := range keys {
		s := sums[k]
		fmt.Fprintf(&out, "\tcase %q: // %d runs, %.4f s over %d B\n\t\treturn %.3g\n",
			k, s.runs, s.seconds, s.bytes, s.seconds/float64(s.bytes))
	}
	t.Logf("reference run at %+v, seed 1:\n%s", paperScale, out.String())
}

// TestSizeOf pins the size walk on the shapes the charge sees.
func TestSizeOf(t *testing.T) {
	type row struct {
		Vals []float64
		Tag  string
	}
	for _, c := range []struct {
		name string
		v    any
		want int64
	}{
		{"nil", nil, 0},
		{"flat slice", make([]float64, 10), 24 + 80},
		{"bytes", make([]byte, 1<<20), 24 + 1<<20},
		{"string", "abcd", 16 + 4},
		{"struct walk", row{Vals: make([]float64, 2), Tag: "xy"}, (24 + 16) + (16 + 2)},
		{"pointer", &row{Tag: "x"}, 8 + 24 + 16 + 1},
		{"map counts entries", map[string]int{"a": 1, "b": 2}, 8 + 2*(16+8)},
		{"slice of strings", []string{"a", "bc"}, 24 + (16 + 1) + (16 + 2)},
	} {
		if got := sizeOf(c.v); got != c.want {
			t.Errorf("%s: sizeOf = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestModelBillsKindRateTimesBytes: the charge is the kind's rate times
// the node's input and output bytes, advances the clock by exactly that,
// and sizes a parent's value once however many children read it.
func TestModelBillsKindRateTimesBytes(t *testing.T) {
	d := core.NewDAG()
	src := d.MustAddNode("src", core.KindSource, core.DPR, "src", true)
	ext := d.MustAddNode("ext", core.KindExtractor, core.DPR, "ext", true)
	if err := d.AddEdge(src, ext); err != nil {
		t.Fatal(err)
	}
	m := newModel(HelixOpt)
	in, out := make([]float64, 1000), make([]float64, 10)
	m.Bill(src, nil, in)
	before := m.Elapsed()
	got := m.Bill(ext, []any{in}, out)
	want := time.Duration(chargePerByte(ext) * float64(sizeOf(in)+sizeOf(out)) * float64(time.Second))
	if got != want || m.Elapsed()-before != want {
		t.Fatalf("billed %v (clock moved %v), want %v", got, m.Elapsed()-before, want)
	}
	if len(m.sizes) != 2 {
		t.Fatalf("memoized %d sizes, want one per node", len(m.sizes))
	}
}

// slowdownBiller bills a DPR node (rows) and an L/I node (predictions)
// on a fresh model of a system, checking that each bill moves the clock
// by exactly what it returns, and gives HELIX OPT's bills as the baseline.
func slowdownBiller(t *testing.T) (bill func(System, *core.Node) time.Duration, rows, pred *core.Node, dpr, li time.Duration) {
	t.Helper()
	d := core.NewDAG()
	rows = d.MustAddNode("rows", core.KindScanner, core.DPR, "rows", true)
	pred = d.MustAddNode("predictions", core.KindLearner, core.LI, "predictions", true)
	if err := d.AddEdge(rows, pred); err != nil {
		t.Fatal(err)
	}
	in, out := make([]float64, 1000), make([]float64, 10000)
	bill = func(sys System, n *core.Node) time.Duration {
		m := newModel(sys)
		got := m.Bill(n, []any{in}, out)
		if m.Elapsed() != got {
			t.Fatalf("%s billed %s %v but moved the clock %v", sys.Name, n.Name, got, m.Elapsed())
		}
		return got
	}
	dpr, li = bill(HelixOpt, rows), bill(HelixOpt, pred)
	if dpr == 0 || li == 0 {
		t.Fatalf("HELIX OPT billed rows %v and predictions %v, want both above zero", dpr, li)
	}
	return bill, rows, pred, dpr, li
}

// TestDPRSlowdown: DeepDive's DPR slowdown scales the model's charge for
// DPR nodes only. A DPR node is billed exactly twice its charge under
// HELIX OPT and an L/I node exactly once.
func TestDPRSlowdown(t *testing.T) {
	bill, rows, pred, dpr, li := slowdownBiller(t)
	if got := bill(DeepDive, rows); got != 2*dpr {
		t.Errorf("%s billed the DPR node %v, want %v", DeepDive.Name, got, 2*dpr)
	}
	if got := bill(DeepDive, pred); got != li {
		t.Errorf("%s billed the L/I node %v, want %v", DeepDive.Name, got, li)
	}
}

// TestLISlowdown: KeystoneML's L/I slowdown scales the model's charge for
// L/I nodes only. An L/I node is billed exactly twice its charge under
// HELIX OPT and a DPR node exactly once.
func TestLISlowdown(t *testing.T) {
	bill, rows, pred, dpr, li := slowdownBiller(t)
	if got := bill(KeystoneML, rows); got != dpr {
		t.Errorf("%s billed the DPR node %v, want %v", KeystoneML.Name, got, dpr)
	}
	if got := bill(KeystoneML, pred); got != 2*li {
		t.Errorf("%s billed the L/I node %v, want %v", KeystoneML.Name, got, 2*li)
	}
}

// fusedChain is src → rows → x10 → keep → total, whose three row-wise
// DPR operators fuse into one unit headed by the Scanner rows. Only rows
// has a charge (chargePerByte), so a run's model wall is the unit's bill.
func fusedChain() *helix.Workflow {
	wf := helix.New("fused-chain")
	src := wf.Source("src", "v1", func(context.Context, []helix.Value) (helix.Value, error) {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = "1 2 3 4 5"
		}
		return lines, nil
	})
	rows := helix.FlatMapRows(wf, "rows", "fields", func(line string) []float64 {
		out := make([]float64, 0, 5)
		for _, f := range strings.Fields(line) {
			out = append(out, float64(len(f)))
		}
		return out
	}, src)
	x10 := helix.MapRows(wf, "x10", "x10", func(v float64) float64 { return 10 * v }, rows)
	keep := helix.FilterRows(wf, "keep", ">0", func(v float64) bool { return v > 0 }, x10)
	wf.Reducer("total", "sum", func(_ context.Context, in []helix.Value) (helix.Value, error) {
		var sum float64
		for _, v := range in[0].([]float64) {
			sum += v
		}
		return sum, nil
	}, keep).IsOutput()
	return wf
}

// TestSlowdownAppliesToFusedChain: the model bills a fused DPR chain as
// one unit under its head's component, so DeepDive's factor doubles the
// unit's bill exactly and KeystoneML's leaves it alone, and each member
// reports an even share of what the unit was billed.
func TestSlowdownAppliesToFusedChain(t *testing.T) {
	run := func(sys System) *helix.Result {
		sess, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.PolicyNever))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Run(clock.With(context.Background(), newModel(sys)), fusedChain())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Plan.Fused) != 1 || len(res.Plan.Fused[0]) != 3 {
			t.Fatalf("%s: fused units %v, want one of three members", sys.Name, res.Plan.Fused)
		}
		share := (res.Wall / 3).Seconds()
		for _, name := range []string{"rows", "x10", "keep"} {
			if got := res.Nodes[name].Seconds; got != share {
				t.Errorf("%s: %s reports %vs, want its share %vs of the unit's %v", sys.Name, name, got, share, res.Wall)
			}
		}
		return res
	}
	base := run(HelixOpt).Wall
	if base <= 0 {
		t.Fatalf("HELIX OPT billed the unit %v, want above zero", base)
	}
	if got := run(DeepDive).Wall; got != 2*base {
		t.Errorf("DeepDive billed the unit %v, want exactly 2 × %v", got, base)
	}
	if got := run(KeystoneML).Wall; got != base {
		t.Errorf("KeystoneML billed the DPR unit %v, want exactly HELIX OPT's %v", got, base)
	}
}
