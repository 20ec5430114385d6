// Package plan extracts HELIX's planning pipeline — change tracking
// (paper §4.2), program slicing (§5.4), and the MAX-FLOW reduction of
// OPT-EXEC-PLAN (§5.2) — into a self-contained, inspectable artifact.
//
// A Planner takes the current workflow DAG, the previous iteration's DAG,
// and a read-only view of the materialization store, and produces a Plan:
// per-node execution states with costs, originality, liveness, a
// per-decision rationale (why Load vs Compute vs Prune), precomputed
// ancestor sets and cumulative times C(n) (Definition 6), and the
// projected run time T(W, s) of Equation 1. The execution engine
// (internal/exec) carries a Plan out verbatim; Session.Plan returns one to
// callers without executing, and Plan.Explain renders the decision table
// helixrun -explain prints. Classic plan → explain → execute layering:
// the optimizer's choices become visible and testable in isolation
// instead of living inline in the engine.
//
// # Plan reuse
//
// Every Plan call derives a Fingerprint — a stable hash over the DAG's
// topology, per-node chain signatures, the store's materialized-set view,
// carried cost statistics, and the planning options. A Planner given a
// Cache looks the fingerprint up among recent plans: on a match the prior
// Plan is reused wholesale (no purge spec, no ancestor-bitset
// construction, no max-flow solve); otherwise the plan is solved cold.
// The saving is a millisecond at most, not an order of magnitude:
// on a 1000-node, 5000-edge DAG a cold plan costs ~2 ms — the exact solve
// (Dinic, over the dense inputs gather already holds) is ~0.4 ms of it —
// against ~0.9 ms for the gather and fingerprint every call pays, hit or
// not. Reuse is sound because the fingerprint covers every input the
// solve depends on.
//
// helixlint (plandeterminism) holds this package to byte-stable output:
// no wall clocks, no global randomness, no map iteration into
// order-sensitive sinks — equal inputs must always hash and plan
// identically.
//
//lint:deterministic
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"helix/internal/core"
	"helix/internal/opt"
)

// MatView is the read-only view of the materialization store the planner
// consults. Lookup reports whether an equivalent materialization exists
// under the given chain signature and, if so, its on-disk size;
// EstimateLoad projects the time to load that many bytes. A nil view
// plans as if the store were empty (no reuse).
type MatView interface {
	Lookup(key string) (size int64, ok bool)
	EstimateLoad(size int64) time.Duration
}

// Options configures planning. The zero value plans with reuse and
// pruning enabled and no mandatory output materialization.
//
// Every field here conditions plan identity, so every field must be
// folded into the fingerprint — helixlint enforces the coverage.
//
//lint:fingerprint fingerprintInputs
type Options struct {
	// DisableReuse ignores existing materializations: every live node is
	// computed (models KeystoneML and DeepDive, which never reuse across
	// iterations). It also suppresses the purge spec.
	DisableReuse bool
	// DisablePruning turns off program slicing (ablation): every node is
	// treated as live.
	DisablePruning bool
	// MaterializeOutputs marks computed output nodes for mandatory
	// materialization regardless of the runtime policy (the paper's
	// "mandatory output" drums in Figure 3).
	MaterializeOutputs bool
	// Streaming enables operator fusion: maximal linear runs of live,
	// deterministic, streamable compute nodes are grouped into fused runs
	// (Plan.Fused) the engine executes as single scheduled units with
	// per-element pull, never building the interior collections. Off in
	// the zero value; exec.New and helix.Open turn it on, and
	// helix.WithStreaming(false) turns it back off.
	Streaming bool
	// Shared plans against a content-addressed shared store: originality
	// (Definition 2's "no equivalent in the previous iteration") is
	// derived from the store rather than the previous DAG — a changed
	// chain has a new signature that by construction has no published
	// artifact, so Load is +Inf and the solver is forced to compute or
	// prune it; Constraint 1's MustCompute is never set, and the purge
	// spec deprecates no names (other sessions may still depend on them —
	// eviction is the shared store's refcounted concern). This is what
	// makes a warm session's first fingerprint byte-identical to the
	// steady state another session cached.
	Shared bool
}

// NodePlan is one node's planned treatment plus everything the decision
// rested on.
type NodePlan struct {
	// Index is the node's position in Plan.Nodes (topological order).
	Index int
	// Node is the planned DAG node.
	Node *core.Node
	// State is the execution state OPT-EXEC-PLAN assigned (§5.1).
	State core.State
	// Live reports membership in the backward program slice from the
	// outputs (§5.4); non-live nodes are always pruned.
	Live bool
	// Original reports that the node has no equivalent in the previous
	// iteration (Definition 2) and must be recomputed (Constraint 1).
	Original bool
	// Output reports that the node is a declared workflow output.
	Output bool
	// MandatoryMat marks a computed output that will be materialized
	// regardless of the runtime policy (Options.MaterializeOutputs).
	MandatoryMat bool
	// Costs are the solver inputs: compute time c_i, load time l_i
	// (+Inf without an equivalent materialization), and the constraint
	// flags. Zero for non-live nodes, which never reach the solver.
	Costs opt.Costs
	// ProjectedOwn is the node's own projected time t(n) under the plan:
	// Costs.Compute if computed, Costs.Load if loaded, 0 if pruned.
	ProjectedOwn float64
	// ProjectedCum is the projected cumulative run time C(n) per
	// Definition 6: ProjectedOwn plus the sum over all ancestors'
	// ProjectedOwn. Zero at iteration 0, when no statistics exist yet.
	ProjectedCum float64
	// ProjectedTail is the projected length of the longest chain of
	// compute-state descendants that transitively wait on this node,
	// including the node's own projected time — the node's downstream
	// critical path. The scheduler's critical-path ordering pops the
	// ready node with the largest tail first, so stragglers start early.
	// Zero when no statistics exist yet (the scheduler then degrades to
	// FIFO order).
	ProjectedTail float64
	// FuseGroup is the index into Plan.Fused of the fused run this node
	// belongs to, or -1. Within a group, only the last member's value is
	// ever built; the engine schedules the whole run as one unit.
	FuseGroup int
	// Rationale states, in one phrase, why the solver assigned State.
	Rationale string
}

// PurgeSpec records the planner's purge decision: which store entries
// survive the iteration. An entry is kept iff its key is a current chain
// signature, or it belongs to an operator name that did not change this
// iteration (a deprecated name's old results can never be reused, §6.6).
// Nil when reuse is disabled. The executor applies it; planning itself
// never mutates the store.
type PurgeSpec struct {
	// CurrentSigs is the set of chain signatures present in this
	// iteration's DAG.
	CurrentSigs map[string]bool
	// DeprecatedNames is the set of operator names that are original this
	// iteration: their previously stored results are stale.
	DeprecatedNames map[string]bool
}

// Plan is a self-contained execution plan for one iteration: every
// decision the engine will carry out, plus the evidence behind it.
//
// Plans are rebuilt wholesale by the cache's hit() rebind and by
// CloneRows; helixlint requires every non-exempt field to be assigned in
// those literals, so a new field cannot silently vanish on a cache hit
// (the way Fused/FusedSigs once did).
//
//lint:rebind hit CloneRows
type Plan struct {
	// Iteration is the iteration the plan was built for.
	Iteration int
	// Nodes holds the per-node plans in topological order.
	Nodes []*NodePlan
	// ProjectedSeconds is T(W, s) from Equation 1: the projected run time
	// of the chosen states under the known costs.
	ProjectedSeconds float64
	// Counts tallies live nodes per assigned state (the Figure 8 series).
	Counts map[core.State]int
	// Purge is the materialization-purge decision; nil when reuse is
	// disabled.
	Purge *PurgeSpec
	// Cache reports how the planner obtained this plan: a fresh solve, or
	// a wholesale reuse of a recent plan with the same fingerprint.
	Cache CacheOutcome
	// Solves is the number of max-flow solves this particular Plan call
	// ran: 0 on a full fingerprint hit, 1 otherwise. Deterministic per-call
	// accounting for the adaptive re-planner's speculation budget —
	// unlike the process-wide opt.SolveCount, it is unaffected by
	// concurrent planners.
	//
	//lint:fpexempt per-call accounting, not plan state: a hit runs zero solves, so the rebind's zero value is the correct count
	Solves int
	// Fused lists the plan's fused runs (Options.Streaming): each entry is
	// ≥2 Plan.Nodes indices forming a linear chain of streamable compute
	// nodes the engine executes as one unit with per-element pull. Interior
	// members' values are never built, so every member but the last is
	// non-output, non-mandatory, and feeds no compute node outside the run.
	Fused [][]int
	// FusedSigs holds one merged signature per Fused entry — a hash over
	// the members' chain signatures, identifying the fused unit the way a
	// chain signature identifies a single operator. The tail's own chain
	// signature (unchanged by fusion) still keys its materialization, so
	// cross-iteration reuse is untouched.
	FusedSigs []string
	// Fingerprint is the stable hash of every planning input this plan
	// was derived from; two Plan calls with equal fingerprints are
	// guaranteed to produce equivalent plans.
	Fingerprint Fingerprint

	// byNode/byName are built lazily on first lookup: most plans are
	// executed, not queried, and two map constructions per iteration were
	// measurable on 1000-node workflows.
	//
	//lint:fpexempt lazy lookup index, rebuilt on first For/ByName via initMaps; copying would alias stale rows
	mapsOnce sync.Once
	//lint:fpexempt lazy lookup index, rebuilt on first For/ByName via initMaps; copying would alias stale rows
	byNode map[*core.Node]*NodePlan
	//lint:fpexempt lazy lookup index, rebuilt on first For/ByName via initMaps; copying would alias stale rows
	byName map[string]*NodePlan
	// anc holds every node's ancestor set as a bitset over Plan.Nodes
	// indices, ancWords words per node — V²/64 words total, computed once
	// here so the executor's retirement path can price C(n) from measured
	// times with a bit scan instead of an O(ancestors) graph traversal
	// (map allocation and pointer chasing) per retirement. The table
	// depends only on topology, so a cache hit shares the cached plan's
	// table instead of rebuilding it.
	anc      []uint64
	ancWords int
}

func (p *Plan) initMaps() {
	p.mapsOnce.Do(func() {
		p.byNode = make(map[*core.Node]*NodePlan, len(p.Nodes))
		p.byName = make(map[string]*NodePlan, len(p.Nodes))
		for _, np := range p.Nodes {
			p.byNode[np.Node] = np
			p.byName[np.Node.Name] = np
		}
	})
}

// ByName returns the plan entry for the named node, or nil.
func (p *Plan) ByName(name string) *NodePlan {
	p.initMaps()
	return p.byName[name]
}

// ForEachAncestor calls fn with the Plan.Nodes index of every ancestor
// (pruned included) of the node at index i, in ascending index order.
func (p *Plan) ForEachAncestor(i int, fn func(j int)) {
	row := p.anc[i*p.ancWords : (i+1)*p.ancWords]
	for w, word := range row {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			fn(w*64 + b)
		}
	}
}

// CloneRows returns a copy of the plan whose NodePlan rows the caller may
// mutate freely. Cached plans alias their rows into the plan cache (hit
// rebinds and re-stores them), so an executor that adapts states mid-run
// must clone before touching a row. The topology-dependent ancestor
// table, purge spec, and fusion groups are immutable under row mutation
// and stay shared; Counts is copied so state tallies can be adjusted.
func (p *Plan) CloneRows() *Plan {
	q := &Plan{
		Iteration:        p.Iteration,
		Nodes:            make([]*NodePlan, len(p.Nodes)),
		ProjectedSeconds: p.ProjectedSeconds,
		Counts:           make(map[core.State]int, len(p.Counts)),
		Purge:            p.Purge,
		Cache:            p.Cache,
		Solves:           p.Solves,
		Fused:            p.Fused,
		FusedSigs:        p.FusedSigs,
		Fingerprint:      p.Fingerprint,
		anc:              p.anc,
		ancWords:         p.ancWords,
	}
	rows := make([]NodePlan, len(p.Nodes))
	for i, np := range p.Nodes {
		rows[i] = *np
		q.Nodes[i] = &rows[i]
	}
	for s, n := range p.Counts {
		q.Counts[s] = n
	}
	return q
}

// TestHookMutatePlan, when non-nil, is applied to every plan a Planner
// returns — fresh solves and cache hits alike — before the caller sees
// it. It exists solely for the property-based harness (internal/fuzz),
// which installs a deliberately broken mutation to prove its invariant
// checks catch a planner defect end to end. Never set outside tests.
var TestHookMutatePlan func(*Plan)

// Planner builds Plans. The zero value plans without reuse, without a
// plan cache, and with a throwaway solver. A Planner (or at least its
// Cache and Solver, which hold the cross-iteration state) is not safe for
// concurrent use.
type Planner struct {
	// View is the materialization-store view; nil plans as if empty.
	View MatView
	// Opts configures planning.
	Opts Options
	// Cache, when non-nil, enables plan reuse: Plan looks its fingerprint
	// up there and, on a match, returns the cached plan without a solve.
	Cache *Cache
	// Solver, when non-nil, is the pooled OPT-EXEC-PLAN solver whose flow
	// network and buffers are reused across iterations. Nil uses a
	// throwaway solver per call.
	Solver *opt.Solver
	// ConfigToken describes the engine-level configuration (policy,
	// budget, parallelism, …) this particular Plan call runs under. It is
	// hashed into the fingerprint, so two calls under differing
	// configurations can never reuse each other's decisions — the license
	// run-scoped configuration overrides need.
	// Empty falls back to the Cache's session-wide ConfigToken.
	ConfigToken string
	// Shared, when non-nil, is the process-wide plan cache + frozen
	// statistics board (shared-store mode). The caller still sets Cache to
	// Shared.Cache(); this reference exists so Plan can apply the frozen
	// per-signature metrics after the change-tracking carry, keeping every
	// session's solver inputs — and therefore fingerprints — identical.
	Shared *SharedCache
	// SkipCarry suppresses change tracking (DAG.Track, with its metric
	// carry, and the shared-stats overlay) for this call: the DAG's
	// current metrics are taken as authoritative. The adaptive re-planner
	// sets it when re-planning mid-run — it has just written corrected
	// frontier metrics into the very DAG being planned, and carrying the
	// previous iteration's statistics back over them would undo the
	// correction.
	// Deliberately NOT part of Options: it changes no planning decision
	// given the same metrics, and folding it into the fingerprinted
	// options would sever re-plans from the run's own cache entries.
	SkipCarry bool
}

// planInputs carries the derived planning inputs between pipeline stages.
// The per-node attributes are slices indexed by topological position —
// the hit path runs every iteration, and four map constructions per call
// were a measurable tax on 1000-node workflows.
type planInputs struct {
	d         *core.DAG
	iteration int
	order     []*core.Node
	// pos maps a node's (dense) ID to its index in order.
	pos       []int32
	originals []bool
	live      []bool
	outputs   []bool
	costs     []opt.Costs // zero value for non-live nodes
	// purge is filled in by the caller only on the paths that need a
	// fresh spec; a full cache hit reuses the cached plan's.
	purge *PurgeSpec
}

// idx returns n's index in the topological order.
func (in *planInputs) idx(n *core.Node) int { return int(in.pos[n.ID]) }

// Plan runs the full planning pipeline against d for the given iteration:
// change tracking versus prev (nil at iteration 0), program slicing, the
// purge decision, cost assembly, and the OPT-EXEC-PLAN solve — or, with a
// Cache attached, as little of that as the input fingerprint proves
// necessary. It mutates only d (signatures and carried metrics); prev and
// the store view are read-only.
func (pl *Planner) Plan(d *core.DAG, prev *core.DAG, iteration int) (*Plan, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid workflow: %w", err)
	}

	// 1. Change tracking (§4.2): signatures, originality and the metric
	// carry in one walk against prev. A SkipCarry call trusts the DAG
	// as-is: the run's initial plan tracked it and executor goroutines are
	// concurrently reading its signatures, so recomputing (even to
	// identical values) would be a data race — and carrying the previous
	// iteration's statistics would undo the corrections the re-planner
	// just wrote.
	if !pl.SkipCarry {
		d.Track(prev)
		if pl.Shared != nil {
			pl.Shared.ApplyStats(d)
		}
	}

	// 2-3. Originality, slicing, and cost assembly — the cheap O(V+E)
	// stages every call pays, because they are what the fingerprint is
	// computed from.
	in := pl.gather(d, iteration)

	// 5. Fingerprint the planning inputs and consult the cache: a match
	// reuses that plan wholesale, with no solve at all.
	var fp Fingerprint
	if pl.Cache != nil {
		token := pl.ConfigToken
		if token == "" {
			token = pl.Cache.ConfigToken
		}
		fp = fingerprintInputs(in, pl.Opts, token)
		if p := pl.Cache.hit(fp, in); p != nil {
			if TestHookMutatePlan != nil {
				TestHookMutatePlan(p)
			}
			return p, nil
		}
	}
	pl.buildPurge(in)
	anc, words := buildAncestors(in.order, in.pos)

	// 6. OPT-EXEC-PLAN (Problem 1) via the MAX-FLOW reduction over the live
	// slice, handed to the solver in the topological-index form gather
	// built.
	solver := pl.Solver
	if solver == nil {
		solver = new(opt.Solver)
	}
	states := solver.OptimalStatesDense(in.order, in.pos, in.costs, in.live)

	// 7. Assemble the artifact: states, rationale, ancestor sets, and
	// cumulative times, all in topological order.
	p := pl.assemble(in, states, anc, words, fp)
	p.Solves = 1
	if pl.Cache != nil {
		pl.Cache.store(fp, p)
	}
	if TestHookMutatePlan != nil {
		TestHookMutatePlan(p)
	}
	return p, nil
}

// gather runs the cheap O(V+E) pipeline stages that every Plan call pays,
// cached or not: originality, program slicing, and cost assembly
// (including the store-view lookups the fingerprint must observe — a
// cached plan may never survive a store eviction unseen). The purge
// decision is NOT built here: see buildPurge, which runs only on misses —
// a hit reuses the cached spec.
func (pl *Planner) gather(d *core.DAG, iteration int) *planInputs {
	in := &planInputs{d: d, iteration: iteration}
	in.order = d.TopoSort()
	n := len(in.order)
	in.pos = make([]int32, n)
	for i, nd := range in.order {
		in.pos[nd.ID] = int32(i)
	}

	// Originality (Definition 2): no equivalent node in prev, as Track
	// found it. In shared mode originality is vacuously false for every
	// node: content addressing subsumes Constraint 1 (a changed chain's
	// new signature has no published artifact, so Load is +Inf and the
	// solver computes or prunes it regardless), and a prev-derived flag
	// would make a warm session's first fingerprint — where prev is nil
	// and everything looks original — differ from the steady-state
	// fingerprint another session cached, forfeiting the zero-solve hit.
	in.originals = make([]bool, n)
	if !pl.Opts.Shared {
		for i, nd := range in.order {
			in.originals[i] = nd.Original()
		}
	}

	// Outputs and program slicing (§5.4): the backward slice is computed
	// in reverse topological order — a node is live iff it is an output
	// or feeds a live consumer. No declared outputs means nothing can be
	// pruned safely, matching DAG.Slice.
	in.outputs = make([]bool, n)
	for _, o := range d.Outputs() {
		in.outputs[in.idx(o)] = true
	}
	in.live = make([]bool, n)
	if len(d.Outputs()) == 0 || pl.Opts.DisablePruning {
		for i := range in.live {
			in.live[i] = true
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			if in.outputs[i] {
				in.live[i] = true
				continue
			}
			for _, c := range in.order[i].Children() {
				if in.live[in.idx(c)] {
					in.live[i] = true
					break
				}
			}
		}
	}

	reuse := !pl.Opts.DisableReuse && pl.View != nil

	// Cost model (§5.1) over the live slice.
	in.costs = make([]opt.Costs, n)
	for i, nd := range in.order {
		if !in.live[i] {
			continue
		}
		c := opt.Costs{
			Compute:     nd.Metrics.Compute.Seconds(),
			Load:        math.Inf(1),
			MustCompute: in.originals[i],
			Required:    in.outputs[i],
		}
		// Nondeterministic nodes never have an equivalent materialization
		// (Definition 3): a stored result is one random draw and must not
		// stand in for a fresh computation.
		if reuse && nd.Deterministic {
			if size, ok := pl.View.Lookup(nd.ChainSignature()); ok {
				c.Load = pl.View.EstimateLoad(size).Seconds()
			}
		}
		in.costs[i] = c
	}
	return in
}

// buildPurge records the planner's purge decision: an original node's old
// results can never be reused (§6.6). Applied by the executor; suppressed
// when reuse is off (the no-reuse systems — KeystoneML, DeepDive — never
// touch prior results, stale or not). Built only on cache misses; a hit
// reuses the cached plan's spec, which the fingerprint proves identical.
func (pl *Planner) buildPurge(in *planInputs) {
	if pl.Opts.DisableReuse {
		return
	}
	in.purge = &PurgeSpec{
		CurrentSigs:     make(map[string]bool, len(in.order)),
		DeprecatedNames: make(map[string]bool),
	}
	for i, n := range in.order {
		in.purge.CurrentSigs[n.ChainSignature()] = true
		if in.originals[i] {
			in.purge.DeprecatedNames[n.Name] = true
		}
	}
}

// buildAncestors computes ancestor reachability as bitsets over
// topological indices: row i is the union of every parent's row plus the
// parent itself. One O(V·E/64) pass replaces the per-retirement graph
// walks the engine used to pay (O(n²) pointer-chasing per run on deep
// DAGs). The whole table is V²/64 words — ~12 MB even at 10k nodes — and
// is retained on the Plan for the executor's C(n) pricing; a cache hit
// shares the cached plan's table.
func buildAncestors(order []*core.Node, pos []int32) ([]uint64, int) {
	words := (len(order) + 63) / 64
	anc := make([]uint64, len(order)*words)
	row := func(i int) []uint64 { return anc[i*words : (i+1)*words] }
	for i, n := range order {
		ri := row(i)
		for _, par := range n.Parents() {
			j := int(pos[par.ID])
			for w, word := range row(j) {
				ri[w] |= word
			}
			ri[j/64] |= 1 << uint(j%64)
		}
	}
	return anc, words
}

// assemble builds the Plan artifact from solver states (indexed like
// in.order): per-node rows with rationale, state counts, cumulative times
// C(n) from the ancestor bitsets, downstream critical-path tails for the
// scheduler, and the Equation-1 projection.
func (pl *Planner) assemble(in *planInputs, states []core.State, anc []uint64, words int, fp Fingerprint) *Plan {
	order := in.order
	p := &Plan{
		Iteration:   in.iteration,
		Nodes:       make([]*NodePlan, len(order)),
		Counts:      make(map[core.State]int, 3),
		Purge:       in.purge,
		Cache:       CacheCold,
		Fingerprint: fp,
		anc:         anc,
		ancWords:    words,
	}

	// Rows are block-allocated: one slice instead of V small objects per
	// iteration keeps the per-plan GC bill flat.
	rows := make([]NodePlan, len(order))
	own := make([]float64, len(order))
	for i, n := range order {
		np := &rows[i]
		state := states[i]
		*np = NodePlan{
			Index:        i,
			Node:         n,
			State:        state,
			Live:         in.live[i],
			Original:     in.originals[i],
			Output:       in.outputs[i],
			Costs:        in.costs[i], // zero value for non-live nodes
			MandatoryMat: pl.Opts.MaterializeOutputs && in.outputs[i] && state == core.StateCompute,
		}
		switch state {
		case core.StateCompute:
			np.ProjectedOwn = np.Costs.Compute
		case core.StateLoad:
			np.ProjectedOwn = np.Costs.Load
		}
		np.Rationale = opt.Rationale(np.Costs, state, n.Deterministic, in.live[i])
		own[i] = np.ProjectedOwn
		if in.live[i] {
			p.Counts[np.State]++
		}
		p.Nodes[i] = np
	}

	// Projected cumulative times from the bitsets, and the Equation-1
	// total: the sum of every chosen state's own time. Only ancestors with
	// a non-zero own time can move a sum (pruned ones carry zero), so each
	// ancestor row is masked down to those before it is scanned: a small
	// edit's plan has a few dozen of them among a thousand nodes. The
	// terms are added in the same ascending order either way, so the
	// floats are the unmasked sum's, bit for bit.
	mask := make([]uint64, words)
	for i, t := range own {
		if t != 0 {
			mask[i/64] |= 1 << uint(i%64)
		}
	}
	for i, np := range p.Nodes {
		cum := own[i]
		row := anc[i*words : (i+1)*words]
		for w, m := range mask {
			for word := row[w] & m; word != 0; word &= word - 1 {
				cum += own[w*64+bits.TrailingZeros64(word)]
			}
		}
		np.ProjectedCum = cum
		p.ProjectedSeconds += own[i]
	}

	// Downstream critical-path tails in reverse topological order: a
	// node's tail is its own projected time plus the longest tail among
	// compute-state children (loads read from disk and never wait on
	// parents, so they do not extend a parent's tail).
	for i := len(order) - 1; i >= 0; i-- {
		np := p.Nodes[i]
		var best float64
		for _, c := range order[i].Children() {
			if cp := p.Nodes[in.idx(c)]; cp.State == core.StateCompute && cp.ProjectedTail > best {
				best = cp.ProjectedTail
			}
		}
		np.ProjectedTail = own[i] + best
	}
	p.computeFusion(in, pl.Opts.Streaming)
	return p
}

// computeFusion marks the plan's fused runs (Options.Streaming): maximal
// linear chains of ≥2 live, deterministic, streamable, compute-state
// nodes, where each member past the first has the previous member as its
// sole parent, and each member but the last is non-output, carries no
// mandatory materialization, and feeds exactly one compute-state node —
// the next member. Those conditions are what make it safe never to build
// the interior values: pruned children never run, load-state children
// read disk, and the tail's value (the only one built) serves outputs,
// the policy, and cross-iteration reuse under its unchanged chain
// signature. Fusion is a pure function of the plan's states plus the
// DAG's streamable flags, both of which the fingerprint covers, so
// cached plans carry their groups soundly.
func (p *Plan) computeFusion(in *planInputs, streaming bool) {
	p.Fused = nil
	p.FusedSigs = nil
	for _, np := range p.Nodes {
		np.FuseGroup = -1
	}
	if !streaming {
		return
	}
	member := func(i int) bool {
		np := p.Nodes[i]
		return np.Live && np.State == core.StateCompute && np.Node.Streamable &&
			np.Node.Deterministic && len(np.Node.Parents()) == 1 && np.FuseGroup < 0
	}
	// nextMember returns the index of i's unique compute-state child, or
	// -1 when i cannot be an interior (output, mandatory mat, or not
	// exactly one compute consumer).
	nextMember := func(i int) int {
		np := p.Nodes[i]
		if np.Output || np.MandatoryMat {
			return -1
		}
		next := -1
		for _, c := range np.Node.Children() {
			ci := in.idx(c)
			if p.Nodes[ci].State != core.StateCompute {
				continue
			}
			if next != -1 {
				return -1
			}
			next = ci
		}
		return next
	}
	for i := range p.Nodes {
		if !member(i) {
			continue
		}
		// Don't start a chain mid-run: if i's sole parent would itself
		// extend into i, the scan from that parent (a smaller topological
		// index) already claimed it, so a fresh chain here is genuinely
		// maximal.
		chain := []int{i}
		for {
			next := nextMember(chain[len(chain)-1])
			if next < 0 || !member(next) {
				break
			}
			chain = append(chain, next)
		}
		if len(chain) < 2 {
			continue
		}
		g := len(p.Fused)
		h := sha256.New()
		for _, j := range chain {
			p.Nodes[j].FuseGroup = g
			h.Write([]byte(p.Nodes[j].Node.ChainSignature()))
			h.Write([]byte{0})
		}
		p.Fused = append(p.Fused, chain)
		p.FusedSigs = append(p.FusedSigs, hex.EncodeToString(h.Sum(nil)))
	}
}
