// Package fuzz is the property-based harness for the HELIX reproduction:
// deterministic, seed-driven generation of random workflow DAGs, random
// iteration-to-iteration edit sequences, and random session
// configurations, each executed through a real Session and cross-checked
// against independent oracles.
//
// Seven invariants are enforced on every generated case. The numbering
// has gaps on purpose — corpus entries and CHANGES.md refer to invariants
// by number, and 11 and 12 are reserved. 1, 2, 7 and 8 guard paths no
// Session option selects (a nil plan cache, FIFO scheduling, unfused
// row-wise operators, the gob codec), so they are checked where that
// costs no sibling session per iteration:
//
//  1. Plan-cache transparency — subsumed: invariant 3 compares every
//     output of the (always cache-on) subject with the from-scratch
//     reference, and invariant 4 every executed plan with a fresh solve.
//  2. Scheduler equivalence — critical-path and FIFO ready ordering
//     produce identical outputs: the FIFO engine inside
//     exec.TestPropertyReuseMatchesScratch.
//  3. Reuse correctness and output liveness — a declared output is never
//     pruned and never missing, and every output value equals a
//     from-scratch reference evaluation of the workflow (so loading a
//     materialized result never changes a value). Nondeterministic
//     operators are additionally never assigned the Load state (Def 3).
//  4. Plan-cache soundness — the plan an iteration executes (cold, or a
//     full fingerprint hit) assigns every node the same
//     state, liveness, originality, and mandatory-materialization flag
//     as a fresh solve over the same session state.
//  5. Storage-budget compliance — under PolicyOpt the bytes held by the
//     store after a run's write-behind barrier, minus mandatory output
//     materializations (written past the budget by design, though their
//     bytes count against it), never exceed the configured budget.
//  6. Restart consistency — closing every session mid-sequence and
//     reopening on the same directories preserves the iteration counter
//     and the per-iteration history records (introspection survives a
//     process restart), and subsequent iterations still satisfy every
//     other invariant. Mid-run context cancellation must fail the run
//     with a cancellation error, leave the session usable, and never
//     advance the iteration counter.
//  7. Streaming transparency — fused streaming runs produce byte-for-byte
//     the same output values as every row-wise operator run in batch:
//     the unfused engine inside exec.TestPropertyFusedMatchesBatch.
//  8. Codec transparency — the binary columnar codec and gob round-trip
//     every value identically: store.TestCodecRoundTripEquivalence plus
//     the golden fixtures under internal/store/testdata/codec.
//  9. Shared-store transparency — two sessions attached to one shared
//     content-addressed store produce outputs byte-identical to the
//     private-store reference, and neither recomputes a deterministic
//     node whose artifact is already published when loading it is
//     cheaper than recomputing (plan optimality's swap argument).
//  10. Adaptive transparency — a session running with the mid-run
//     divergence monitor armed (WithAdaptive, at the case's random
//     threshold) produces byte-for-byte the same output values as the
//     adaptive-off subject, whether or not any re-plan or
//     compute→load swap fired mid-run.
//  13. Corruption transparency — between iterations the case may flip a
//     bit in, truncate or delete artifacts of the subject's store behind
//     its back (Case.Damages). Invariants 3, 5 and 10 still hold over
//     the damaged store (4 is skipped on an iteration whose executed plan
//     was made after a failed load, over a store the fresh solve did not
//     see); only a damaged artifact ever fails to load; and a damaged
//     artifact fails once — its entry is removed, so its key is never
//     loaded again unless it is written anew.
//
// A failing case is shrunk to a local minimum (dropping iterations,
// edits, restarts, cancellations, and DAG nodes while the same
// invariant still fails), reported
// with its generating seed, and written as JSON into a corpus directory
// so it can be replayed as a regression test (testdata/fuzz at the repo
// root). Everything is reproducible: Generate is a pure function of the
// case seed.
package fuzz

import (
	"fmt"
	"math/rand"
)

// NodeSpec declares one operator of a generated workflow. Parents are
// node names (not indices) so the shrinker can drop nodes without
// remapping references.
type NodeSpec struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // source|scanner|extractor|synthesizer|learner|reducer
	Parents []string `json:"parents,omitempty"`
	Op      int      `json:"op"`    // opcode: selects vector width and busy-work cost
	Param   int      `json:"param"` // tunable parameter; bumping it deprecates the node
	Output  bool     `json:"output,omitempty"`
	Nondet  bool     `json:"nondet,omitempty"`
	// Stream declares a row-wise streaming operator: "map", "filter", or
	// "flatmap". Effective only with exactly one parent and Nondet false
	// (fusion requires determinism); otherwise the node falls back to its
	// batch Kind — deterministically, in BuildWorkflow and Reference
	// alike, so shrunk or hand-edited cases stay self-consistent.
	Stream string `json:"stream,omitempty"`
}

// Edit is one mutation applied to the workflow at the start of an
// iteration. Invalid edits (removing a node with children, toggling off
// the sole output, …) are skipped as no-ops — deterministically, so a
// recorded case replays identically.
type Edit struct {
	Op   string    `json:"op"` // bump|add|remove|toggle
	Node string    `json:"node,omitempty"`
	Add  *NodeSpec `json:"add,omitempty"`
}

// Config is the session configuration a case runs under.
type Config struct {
	Policy      string `json:"policy"` // opt|always|never
	BudgetBytes int64  `json:"budget_bytes,omitempty"`
	Parallelism int    `json:"parallelism"`
	// EvictPressure marks a case whose budget was drawn deliberately
	// below a handful of entries (512–1535 B against ~150–600 B values),
	// so Algorithm 2 must constantly evict to admit: every admission
	// churns a slot, exercising the store's budget admission (invariant
	// 5) and its delete-under-load paths instead of the steady
	// state where the budget is merely tight.
	EvictPressure bool `json:"evict_pressure,omitempty"`
	// Adaptive is the divergence threshold the adaptive sibling session
	// arms (invariant 10). It never applies to the subject or the other
	// oracles; 0 means the case drew no threshold and the sibling runs at
	// a sensitive default instead, so the invariant is always exercised.
	Adaptive float64 `json:"adaptive,omitempty"`
}

// Case is one complete fuzz scenario: a base DAG, an edit list per
// iteration (empty = rerun unchanged), and a configuration. A Case is a
// pure function of its seed (Generate), and serializes to JSON for the
// regression corpus.
type Case struct {
	Seed   int64      `json:"seed"`
	Config Config     `json:"config"`
	Base   []NodeSpec `json:"base"`
	Iters  [][]Edit   `json:"iters"`
	// Restarts lists iteration indices before which every sibling
	// session is closed and reopened on its directory, exercising
	// persisted-state resumption mid-sequence. Out-of-range entries are
	// inert (shrinking may truncate Iters).
	Restarts []int `json:"restarts,omitempty"`
	// Cancels lists iteration indices at which the subject first
	// attempts the run under a context canceled mid-flight (on the first
	// node lifecycle event). A run that fails must leave the session
	// usable; one that outruns the cancellation counts as the
	// iteration's run.
	Cancels []int `json:"cancels,omitempty"`
	// Damages lists artifacts of the subject's store damaged before an
	// iteration (invariant 13).
	Damages []Damage `json:"damages,omitempty"`
}

// Damage is one artifact of the subject's store damaged behind its back
// before iteration Iter: one bit flipped ("flip"), the file cut short
// ("truncate") or removed ("delete"). Pick seeds which artifact and which
// byte, so a recorded case damages the same ones on replay.
type Damage struct {
	Iter int    `json:"iter"`
	Op   string `json:"op"`
	Pick int64  `json:"pick"`
}

// clone deep-copies the case so shrink candidates never alias.
func (c *Case) clone() *Case {
	out := &Case{Seed: c.Seed, Config: c.Config}
	out.Restarts = append([]int(nil), c.Restarts...)
	out.Cancels = append([]int(nil), c.Cancels...)
	out.Damages = append([]Damage(nil), c.Damages...)
	out.Base = cloneSpecs(c.Base)
	out.Iters = make([][]Edit, len(c.Iters))
	for i, edits := range c.Iters {
		out.Iters[i] = make([]Edit, len(edits))
		for j, e := range edits {
			out.Iters[i][j] = e
			if e.Add != nil {
				add := *e.Add
				add.Parents = append([]string(nil), e.Add.Parents...)
				out.Iters[i][j].Add = &add
			}
		}
	}
	return out
}

// size is the shrink metric: total declared nodes plus edits plus
// restart/cancel/damage injections.
func (c *Case) size() int {
	n := len(c.Base) + len(c.Restarts) + len(c.Cancels) + len(c.Damages)
	for _, edits := range c.Iters {
		n += len(edits)
	}
	return n
}

func cloneSpecs(specs []NodeSpec) []NodeSpec {
	out := make([]NodeSpec, len(specs))
	for i, ns := range specs {
		out[i] = ns
		out[i].Parents = append([]string(nil), ns.Parents...)
	}
	return out
}

func countOutputs(nodes []NodeSpec) int {
	n := 0
	for _, ns := range nodes {
		if ns.Output {
			n++
		}
	}
	return n
}

func hasChild(nodes []NodeSpec, name string) bool {
	for _, ns := range nodes {
		for _, p := range ns.Parents {
			if p == name {
				return true
			}
		}
	}
	return false
}

func findSpec(nodes []NodeSpec, name string) int {
	for i, ns := range nodes {
		if ns.Name == name {
			return i
		}
	}
	return -1
}

// applyEdits folds one iteration's edits into the node list, returning a
// fresh slice. Invalid edits are skipped; the same rules run at
// generation time and at replay time, so a Case means the same DAG
// sequence everywhere.
func applyEdits(nodes []NodeSpec, edits []Edit) []NodeSpec {
	cur := cloneSpecs(nodes)
	for _, e := range edits {
		switch e.Op {
		case "bump":
			if i := findSpec(cur, e.Node); i >= 0 {
				cur[i].Param++
			}
		case "add":
			if e.Add == nil || findSpec(cur, e.Add.Name) >= 0 {
				continue
			}
			ok := true
			for _, p := range e.Add.Parents {
				if findSpec(cur, p) < 0 {
					ok = false
					break
				}
			}
			if !ok || (e.Add.Kind == "source") != (len(e.Add.Parents) == 0) {
				continue
			}
			add := *e.Add
			add.Parents = append([]string(nil), e.Add.Parents...)
			cur = append(cur, add)
		case "remove":
			i := findSpec(cur, e.Node)
			if i < 0 || hasChild(cur, e.Node) {
				continue
			}
			if cur[i].Output && countOutputs(cur) == 1 {
				continue
			}
			cur = append(cur[:i], cur[i+1:]...)
		case "toggle":
			i := findSpec(cur, e.Node)
			if i < 0 {
				continue
			}
			if cur[i].Output && countOutputs(cur) == 1 {
				continue
			}
			cur[i].Output = !cur[i].Output
		}
	}
	return cur
}

// Generate derives a complete Case from a seed: DAG shape (chain,
// layered fan-out, diamond, or two disconnected components), operator
// mix with ~15% nondeterministic nodes and a biased sprinkling of
// streaming row-wise operators (biased to chain so fusible runs of ≥ 2
// appear), 2–6 iterations of edits with ~40% deliberate no-op
// iterations (consecutive quiet iterations are what drives the plan
// cache to full fingerprint hits), mid-sequence session restarts,
// mid-run cancellations and damaged artifacts, and a configuration drawn
// from policy × budget × parallelism × materialization mode.
func Generate(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{Seed: seed, Config: genConfig(rng)}
	c.Base = genDAG(rng)
	iters := 2 + rng.Intn(5)
	cur := cloneSpecs(c.Base)
	added := 0
	for i := 0; i < iters; i++ {
		var edits []Edit
		if rng.Float64() >= 0.40 {
			n := 1 + rng.Intn(2)
			for j := 0; j < n; j++ {
				e := genEdit(rng, cur, &added)
				edits = append(edits, e)
				cur = applyEdits(cur, []Edit{e})
			}
		}
		c.Iters = append(c.Iters, edits)
	}
	if rng.Float64() < 0.30 {
		c.Restarts = []int{rng.Intn(iters)}
	}
	if rng.Float64() < 0.25 {
		c.Cancels = []int{rng.Intn(iters)}
	}
	// Drawn last, so no other field of a seed's case depends on it.
	// Iteration 0 starts from an empty store.
	if rng.Float64() < 0.40 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c.Damages = append(c.Damages, Damage{
				Iter: 1 + rng.Intn(iters-1),
				Op:   []string{"flip", "truncate", "delete"}[rng.Intn(3)],
				Pick: rng.Int63(),
			})
		}
	}
	return c
}

func genConfig(rng *rand.Rand) Config {
	cfg := Config{Parallelism: []int{1, 2, 4}[rng.Intn(3)]}
	// Consumes the draw of a retired write-mode knob, so every later draw
	// — and so the case each seed generates — stays what it was.
	rng.Float64()
	if rng.Float64() < 0.5 {
		// Random divergence thresholds spanning hair-trigger (every timing
		// wobble re-plans) to lax (only a gross skew would); either way the
		// adaptive sibling's outputs must stay byte-identical.
		cfg.Adaptive = 0.05 + 1.95*rng.Float64()
	}
	switch p := rng.Float64(); {
	case p < 0.25:
		cfg.Policy = "always"
	case p < 0.50:
		cfg.Policy = "never"
	default:
		cfg.Policy = "opt"
		if rng.Float64() < 0.5 {
			// A deliberately tight budget (4–64 KiB against ~150–600 B
			// entries) so Algorithm 2 actually declines materializations.
			cfg.BudgetBytes = int64(4<<10 + rng.Intn(60<<10))
		}
	}
	if rng.Float64() < 0.15 {
		// Eviction pressure overrides the draw above: force the budgeted
		// policy with a budget of one-to-three entries.
		cfg.EvictPressure = true
		cfg.Policy = "opt"
		cfg.BudgetBytes = int64(512 + rng.Intn(1024))
	}
	return cfg
}

// DAG shapes; scatter builds two disconnected components.
const (
	shapeChain = iota
	shapeLayered
	shapeDiamond
	shapeScatter
)

func genDAG(rng *rand.Rand) []NodeSpec {
	n := 3 + rng.Intn(12)
	shape := rng.Intn(4)
	second := n / 2 // root of the second component under shapeScatter
	nodes := make([]NodeSpec, 0, n)
	for i := 0; i < n; i++ {
		ns := NodeSpec{Name: fmt.Sprintf("n%d", i), Op: rng.Intn(8), Param: 1}
		if i == 0 || (shape == shapeScatter && i == second) {
			ns.Kind = "source"
		} else {
			ns.Kind = pickKind(rng)
			ns.Parents = pickParents(rng, shape, i, second)
			ns.Nondet = rng.Float64() < 0.15
			// Streaming nodes, biased to extend an existing streaming
			// parent so generated DAGs contain fusible runs of length ≥ 2.
			p := 0.25
			if j := findSpec(nodes, ns.Parents[0]); j >= 0 && nodes[j].Stream != "" {
				p = 0.60
			}
			if rng.Float64() < p {
				makeStream(rng, &ns)
			}
		}
		nodes = append(nodes, ns)
	}
	// Sinks become outputs with high probability; interior nodes rarely.
	for i := range nodes {
		p := 0.08
		if !hasChild(nodes, nodes[i].Name) {
			p = 0.85
		}
		if rng.Float64() < p {
			nodes[i].Output = true
		}
	}
	if countOutputs(nodes) == 0 {
		nodes[len(nodes)-1].Output = true
	}
	return nodes
}

// makeStream turns a drafted node into a streaming row-wise operator:
// exactly one parent, deterministic, with the batch Kind matched to the
// streaming declaration (extractor for map/filter, scanner for flatmap)
// for the fallback path.
func makeStream(rng *rand.Rand, ns *NodeSpec) {
	ns.Parents = ns.Parents[:1]
	ns.Nondet = false
	ns.Stream = []string{"map", "filter", "flatmap"}[rng.Intn(3)]
	if ns.Stream == "flatmap" {
		ns.Kind = "scanner"
	} else {
		ns.Kind = "extractor"
	}
}

func pickKind(rng *rand.Rand) string {
	switch p := rng.Float64(); {
	case p < 0.20:
		return "scanner"
	case p < 0.55:
		return "extractor"
	case p < 0.75:
		return "synthesizer"
	case p < 0.90:
		return "learner"
	default:
		return "reducer"
	}
}

// pickParents chooses parent names (all from indices < i, so the list is
// topologically ordered by construction) according to the shape bias.
func pickParents(rng *rand.Rand, shape, i, second int) []string {
	lo, hi := 0, i // candidate index range [lo, hi)
	if shape == shapeScatter && i > second {
		lo = second // second component: parents only from its own root on
	}
	pick := func(j int) string { return fmt.Sprintf("n%d", j) }
	var parents []string
	switch shape {
	case shapeChain:
		parents = append(parents, pick(i-1))
		if i >= 2 && rng.Float64() < 0.2 {
			parents = append(parents, pick(rng.Intn(i-1)))
		}
	case shapeLayered:
		k := 1 + rng.Intn(3)
		base := lo
		if i-4 > base {
			base = i - 4
		}
		for j := 0; j < k; j++ {
			parents = append(parents, pick(base+rng.Intn(hi-base)))
		}
	case shapeDiamond:
		parents = append(parents, pick(i-1))
		if i >= 2 && rng.Float64() < 0.6 {
			parents = append(parents, pick(i-2))
		}
	case shapeScatter:
		k := 1 + rng.Intn(2)
		for j := 0; j < k; j++ {
			parents = append(parents, pick(lo+rng.Intn(hi-lo)))
		}
	}
	return dedupe(parents)
}

func dedupe(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func genEdit(rng *rand.Rand, cur []NodeSpec, added *int) Edit {
	switch p := rng.Float64(); {
	case p < 0.45:
		return Edit{Op: "bump", Node: cur[rng.Intn(len(cur))].Name}
	case p < 0.65:
		*added++
		ns := NodeSpec{
			Name:   fmt.Sprintf("a%d", *added),
			Kind:   pickKind(rng),
			Op:     rng.Intn(8),
			Param:  1,
			Output: rng.Float64() < 0.3,
			Nondet: rng.Float64() < 0.1,
		}
		k := 1 + rng.Intn(2)
		for j := 0; j < k; j++ {
			ns.Parents = append(ns.Parents, cur[rng.Intn(len(cur))].Name)
		}
		ns.Parents = dedupe(ns.Parents)
		if rng.Float64() < 0.3 {
			makeStream(rng, &ns)
		}
		return Edit{Op: "add", Add: &ns}
	case p < 0.82:
		return Edit{Op: "toggle", Node: cur[rng.Intn(len(cur))].Name}
	default:
		var cands []string
		for _, ns := range cur {
			if hasChild(cur, ns.Name) {
				continue
			}
			if ns.Output && countOutputs(cur) == 1 {
				continue
			}
			cands = append(cands, ns.Name)
		}
		if len(cands) == 0 {
			return Edit{Op: "bump", Node: cur[rng.Intn(len(cur))].Name}
		}
		return Edit{Op: "remove", Node: cands[rng.Intn(len(cands))]}
	}
}
