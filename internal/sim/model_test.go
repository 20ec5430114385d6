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
	rec := &recorder{sizes: newModel()}
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
	m := newModel()
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
