package plan

import (
	"strings"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/opt"
)

// nodeRow projects a NodePlan onto its decision-relevant fields, so plans
// from different DAG instances (different Node pointers) can be compared
// for equivalence.
type nodeRow struct {
	name         string
	state        core.State
	live         bool
	original     bool
	output       bool
	mandatoryMat bool
	costs        opt.Costs
	own          float64
	cum          float64
	tail         float64
	rationale    string
}

func rowsOf(p *Plan) []nodeRow {
	rows := make([]nodeRow, len(p.Nodes))
	for i, np := range p.Nodes {
		rows[i] = nodeRow{
			name:         np.Node.Name,
			state:        np.State,
			live:         np.Live,
			original:     np.Original,
			output:       np.Output,
			mandatoryMat: np.MandatoryMat,
			costs:        np.Costs,
			own:          np.ProjectedOwn,
			cum:          np.ProjectedCum,
			tail:         np.ProjectedTail,
			rationale:    np.Rationale,
		}
	}
	return rows
}

// assertEquivalent fails unless the two plans agree on every decision and
// projection (cache provenance aside).
func assertEquivalent(t *testing.T, got, want *Plan) {
	t.Helper()
	gr, wr := rowsOf(got), rowsOf(want)
	if len(gr) != len(wr) {
		t.Fatalf("plan has %d rows, want %d", len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("row %d differs:\n got %+v\nwant %+v", i, gr[i], wr[i])
		}
	}
	if got.ProjectedSeconds != want.ProjectedSeconds {
		t.Fatalf("ProjectedSeconds %v, want %v", got.ProjectedSeconds, want.ProjectedSeconds)
	}
	for s, n := range want.Counts {
		if got.Counts[s] != n {
			t.Fatalf("Counts[%v] = %d, want %d", s, got.Counts[s], n)
		}
	}
	if (got.Purge == nil) != (want.Purge == nil) {
		t.Fatalf("purge presence %v, want %v", got.Purge != nil, want.Purge != nil)
	}
	if got.Purge != nil {
		if len(got.Purge.CurrentSigs) != len(want.Purge.CurrentSigs) ||
			len(got.Purge.DeprecatedNames) != len(want.Purge.DeprecatedNames) {
			t.Fatalf("purge spec differs: got %d/%d entries, want %d/%d",
				len(got.Purge.CurrentSigs), len(got.Purge.DeprecatedNames),
				len(want.Purge.CurrentSigs), len(want.Purge.DeprecatedNames))
		}
	}
}

// twoChains builds two independent chains a0→a1→a2 and b0→b1→b2, each
// ending in an output — two weakly-connected components in one DAG.
func twoChains() *core.DAG {
	d := core.NewDAG()
	var prev *core.Node
	for _, name := range []string{"a0", "a1", "a2"} {
		n := d.MustAddNode(name, core.KindExtractor, core.DPR, name+"-v1", true)
		if prev != nil {
			if err := d.AddEdge(prev, n); err != nil {
				panic(err)
			}
		}
		prev = n
	}
	d.MarkOutput(prev)
	prev = nil
	for _, name := range []string{"b0", "b1", "b2"} {
		n := d.MustAddNode(name, core.KindExtractor, core.DPR, name+"-v1", true)
		if prev != nil {
			if err := d.AddEdge(prev, n); err != nil {
				panic(err)
			}
		}
		prev = n
	}
	d.MarkOutput(prev)
	return d
}

// TestCacheFullHitEquivalence: planning byte-identical inputs twice must
// produce a CacheHit whose plan deep-equals the fresh solve, with zero
// additional max-flow solves.
func TestCacheFullHitEquivalence(t *testing.T) {
	secs := map[string]float64{"a": 3, "b": 2, "c": 4}
	build := func() *core.DAG { return chain("a", "b", "c") }
	view := fakeView{sizes: map[string]int64{sigOf(build(), "b"): 1 << 20}, rate: 1 << 20}
	prev := withMetrics(build, secs)

	pl := &Planner{View: view, Opts: Options{MaterializeOutputs: true}, Cache: NewCache("test")}
	d1 := build()
	cold, err := pl.Plan(d1, prev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache != CacheCold {
		t.Fatalf("first plan outcome %v, want cold", cold.Cache)
	}

	before := opt.SolveCount()
	d2 := build()
	hit, err := pl.Plan(d2, prev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.SolveCount() - before; got != 0 {
		t.Fatalf("cache hit performed %d max-flow solves, want 0", got)
	}
	if hit.Cache != CacheHit {
		t.Fatalf("second plan outcome %v, want hit", hit.Cache)
	}
	if hit.Iteration != 2 {
		t.Fatalf("hit iteration %d, want 2", hit.Iteration)
	}
	if hit.Fingerprint != cold.Fingerprint {
		t.Fatal("hit fingerprint differs from the plan it reused")
	}
	for _, np := range hit.Nodes {
		if np.Node != d2.Node(np.Node.Name) {
			t.Fatalf("hit row %s still points at the old DAG", np.Node.Name)
		}
	}
	assertEquivalent(t, hit, cold)
	if st := pl.Cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// The hit must also match what a cache-less planner derives from the
	// same inputs — reuse may never drift from a fresh solve.
	fresh, err := (&Planner{View: view, Opts: Options{MaterializeOutputs: true}}).Plan(build(), prev, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, hit, fresh)
}

// TestCacheEditSolvesCold: an edit confined to one weakly-connected
// component of the DAG, or to a sliced-away branch, misses the cache and
// solves cold exactly once; the edited row is fresh and the whole plan
// equals a cache-less solve.
func TestCacheEditSolvesCold(t *testing.T) {
	deadBranch := func() *core.DAG {
		d := chain("a", "b", "c")
		dead := d.MustAddNode("dead", core.KindReducer, core.PPR, "dead-v1", true)
		if err := d.AddEdge(d.Node("b"), dead); err != nil {
			panic(err)
		}
		return d
	}
	cases := []struct {
		name   string
		build  func() *core.DAG
		edited string
		want   core.State // the edited node's planned state
	}{
		{"component edit", twoChains, "b1", core.StateCompute},
		{"dead branch edit", deadBranch, "dead", core.StatePrune},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := tc.build()
			prev.ComputeSignatures()
			view := fakeView{sizes: map[string]int64{}, rate: 10 << 20}
			for _, n := range prev.Nodes() {
				n.Metrics = core.Metrics{Compute: time.Second, Known: true}
				if len(n.Children()) == 0 {
					view.sizes[n.ChainSignature()] = 1 << 20
				}
			}
			pl := &Planner{View: view, Opts: Options{MaterializeOutputs: true}, Cache: NewCache("test")}
			if _, err := pl.Plan(tc.build(), prev, 1); err != nil {
				t.Fatal(err)
			}
			edit := func() *core.DAG {
				d := tc.build()
				d.Node(tc.edited).OpSignature += "|edited"
				return d
			}
			before := opt.SolveCount()
			p, err := pl.Plan(edit(), prev, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := opt.SolveCount() - before; got != 1 {
				t.Fatalf("edit performed %d solves, want exactly 1", got)
			}
			if p.Cache != CacheCold {
				t.Fatalf("outcome %v, want cold", p.Cache)
			}
			if np := p.ByName(tc.edited); !np.Original || np.State != tc.want {
				t.Fatalf("edited %s = %+v, want original %v", tc.edited, np, tc.want)
			}
			fresh, err := (&Planner{View: view, Opts: Options{MaterializeOutputs: true}}).Plan(edit(), prev, 2)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, p, fresh)
		})
	}
}

// TestCacheInvalidation: every class of planning-input change must
// prevent wholesale reuse and yield exactly what a fresh solve yields.
func TestCacheInvalidation(t *testing.T) {
	secs := map[string]float64{"a": 3, "b": 2, "c": 4}
	build := func() *core.DAG { return chain("a", "b", "c") }
	baseView := func() fakeView {
		return fakeView{sizes: map[string]int64{sigOf(build(), "b"): 1 << 20}, rate: 1 << 20}
	}
	prev := withMetrics(build, secs)
	opts := Options{MaterializeOutputs: true}

	cases := []struct {
		name string
		// mutate returns the planner (reconfigured as needed) and the DAG
		// for the second plan call.
		mutate func(pl *Planner) *core.DAG
	}{
		{"op-signature edit", func(pl *Planner) *core.DAG {
			d := build()
			d.Node("b").OpSignature += "|v2"
			return d
		}},
		{"store eviction", func(pl *Planner) *core.DAG {
			pl.View = fakeView{sizes: map[string]int64{}, rate: 1 << 20}
			return build()
		}},
		{"store size change", func(pl *Planner) *core.DAG {
			pl.View = fakeView{sizes: map[string]int64{sigOf(build(), "b"): 8 << 20}, rate: 1 << 20}
			return build()
		}},
		{"options change", func(pl *Planner) *core.DAG {
			pl.Opts.DisableReuse = true
			return build()
		}},
		{"config token change", func(pl *Planner) *core.DAG {
			pl.Cache.ConfigToken = "parallelism=8"
			return build()
		}},
		{"topology change", func(pl *Planner) *core.DAG {
			return chain("a", "b", "c", "d")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := &Planner{View: baseView(), Opts: opts, Cache: NewCache("base")}
			if _, err := pl.Plan(build(), prev, 1); err != nil {
				t.Fatal(err)
			}
			d := tc.mutate(pl)
			p, err := pl.Plan(d, prev, 2)
			if err != nil {
				t.Fatal(err)
			}
			if p.Cache == CacheHit {
				t.Fatalf("%s still produced a full cache hit", tc.name)
			}
			// Replanning the same DAG with a cache-less planner is safe:
			// the pipeline's mutations (signatures, carried metrics) are
			// idempotent for identical inputs.
			fresh, err := (&Planner{View: pl.View, Opts: pl.Opts}).Plan(d, prev, 2)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, p, fresh)
		})
	}
}

// TestCacheLivenessChangeForcesFullResolve: removing an output changes
// the live slice, so the cached plan must not be reused.
func TestCacheLivenessChangeForcesFullResolve(t *testing.T) {
	// a→b→c with both b and c outputs; dropping c's output mark shrinks
	// the slice.
	build := func(markC bool) *core.DAG {
		d := chain("a", "b", "c")
		d.MarkOutput(d.Node("b"))
		if !markC {
			// chain() marked c; rebuild without it.
			d2 := core.NewDAG()
			var prevN *core.Node
			for _, name := range []string{"a", "b", "c"} {
				n := d2.MustAddNode(name, core.KindExtractor, core.DPR, name+"-v1", true)
				if prevN != nil {
					if err := d2.AddEdge(prevN, n); err != nil {
						panic(err)
					}
				}
				prevN = n
			}
			d2.MarkOutput(d2.Node("b"))
			return d2
		}
		return d
	}
	secs := map[string]float64{"a": 1, "b": 1, "c": 1}
	prev := withMetrics(func() *core.DAG { return build(true) }, secs)
	pl := &Planner{Opts: Options{MaterializeOutputs: true}, Cache: NewCache("t")}
	if _, err := pl.Plan(build(true), prev, 1); err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(build(false), prev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache == CacheHit {
		t.Fatal("liveness change produced a full hit")
	}
	fresh, err := (&Planner{Opts: Options{MaterializeOutputs: true}}).Plan(build(false), prev, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, p, fresh)
	if np := p.ByName("c"); np.Live || np.State != core.StatePrune {
		t.Fatalf("c = %+v, want non-live pruned", np)
	}
}

// TestCacheHitSummaryAndExplainMarkReuse: Explain's summary line must
// say that a cache hit reused every decision.
func TestCacheHitSummaryAndExplainMarkReuse(t *testing.T) {
	pl := &Planner{Opts: Options{MaterializeOutputs: true}, Cache: NewCache("t")}
	if _, err := pl.Plan(chain("a", "b"), nil, 0); err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(chain("a", "b"), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cache != CacheHit {
		t.Fatalf("outcome %v, want hit", p.Cache)
	}
	out := p.Explain()
	if want := "plan cache hit"; !strings.Contains(out, want) {
		t.Fatalf("Explain output missing %q:\n%s", want, out)
	}
}
