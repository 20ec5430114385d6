package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplePath(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	if got := g.MaxFlow(0, 1); got != 5 {
		t.Fatalf("MaxFlow = %v, want 5", got)
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 4)
	if got := g.MaxFlow(0, 1); got != 7 {
		t.Fatalf("MaxFlow = %v, want 7", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10)
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Fatalf("MaxFlow = %v, want 0", got)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	g := New(1)
	if got := g.MaxFlow(0, 0); got != 0 {
		t.Fatalf("MaxFlow(s,s) = %v, want 0", got)
	}
}

// TestClassicNetwork exercises the standard CLRS example network.
func TestClassicNetwork(t *testing.T) {
	// Nodes: s=0, v1=1, v2=2, v3=3, v4=4, t=5. Max flow = 23.
	g := New(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Fatalf("MaxFlow = %v, want 23", got)
	}
}

func TestBottleneck(t *testing.T) {
	// s -> a -> b -> t with capacities 10, 1, 10: flow limited to 1.
	g := New(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 10)
	if got := g.MaxFlow(0, 3); got != 1 {
		t.Fatalf("MaxFlow = %v, want 1", got)
	}
}

func TestMinCutSeparatesSourceAndSink(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(1, 3, 4)
	g.AddEdge(2, 3, 1)
	g.MaxFlow(0, 3)
	cut := g.MinCut(0)
	if !cut[0] {
		t.Fatal("source not on source side of cut")
	}
	if cut[3] {
		t.Fatal("sink on source side of cut")
	}
}

func TestInfEdgeNeverCut(t *testing.T) {
	// s --5--> a --Inf--> b --3--> t. The Inf edge must not be in the cut.
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, Inf)
	g.AddEdge(2, 3, 3)
	if got := g.MaxFlow(0, 3); got != 3 {
		t.Fatalf("MaxFlow = %v, want 3", got)
	}
	cut := g.MinCut(0)
	// The Inf edge (1→2) must not cross the cut: if 1 is on the source
	// side then 2 must be as well.
	if cut[1] && !cut[2] {
		t.Fatal("infinite-capacity edge crosses the min cut")
	}
}

func TestAddEdgePanicsOnNegativeCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative capacity")
		}
	}()
	g := New(2)
	g.AddEdge(0, 1, -1)
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5, 1)
}

// randomNetwork builds a random DAG-ish flow network with integer
// capacities, returning the graph plus an adjacency-capacity matrix for the
// brute-force checker.
func randomNetwork(rng *rand.Rand, n int) (*Graph, [][]float64) {
	g := New(n)
	capMat := make([][]float64, n)
	for i := range capMat {
		capMat[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if rng.Float64() < 0.4 {
				c := float64(rng.Intn(10))
				g.AddEdge(u, v, c)
				capMat[u][v] += c
			}
		}
	}
	return g, capMat
}

// bruteMaxFlow computes max flow via repeated DFS augmentation on a
// capacity matrix — an independent (slower) implementation used as a
// property-test oracle.
func bruteMaxFlow(capMat [][]float64, s, t int) float64 {
	n := len(capMat)
	residual := make([][]float64, n)
	for i := range residual {
		residual[i] = append([]float64(nil), capMat[i]...)
	}
	var total float64
	for {
		// DFS for any augmenting path.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		stack := []int{s}
		for len(stack) > 0 && parent[t] == -1 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < n; v++ {
				if residual[u][v] > 0 && parent[v] == -1 {
					parent[v] = u
					stack = append(stack, v)
				}
			}
		}
		if parent[t] == -1 {
			return total
		}
		bottleneck := math.Inf(1)
		for v := t; v != s; v = parent[v] {
			if residual[parent[v]][v] < bottleneck {
				bottleneck = residual[parent[v]][v]
			}
		}
		for v := t; v != s; v = parent[v] {
			residual[parent[v]][v] -= bottleneck
			residual[v][parent[v]] += bottleneck
		}
		total += bottleneck
	}
}

// TestQuickAgainstBruteForce checks the solver against an independent
// DFS-based implementation on random networks.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g, capMat := randomNetwork(rng, n)
		s, tk := 0, n-1
		got := g.MaxFlow(s, tk)
		want := bruteMaxFlow(capMat, s, tk)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinCutValue checks that the capacity crossing the min cut equals
// the max-flow value (max-flow/min-cut theorem).
func TestQuickMinCutValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g, capMat := randomNetwork(rng, n)
		s, tk := 0, n-1
		flow := g.MaxFlow(s, tk)
		cut := g.MinCut(s)
		if !cut[s] || cut[tk] {
			return false
		}
		var crossing float64
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if cut[u] && !cut[v] {
					crossing += capMat[u][v]
				}
			}
		}
		return math.Abs(crossing-flow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedMaxFlowIsIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 4)
	if got := g.MaxFlow(0, 2); got != 4 {
		t.Fatalf("first MaxFlow = %v, want 4", got)
	}
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Fatalf("second MaxFlow = %v, want 0 (saturated residual)", got)
	}
}

// TestResetReusesStorageAndSolvesFresh: a Reset graph must behave exactly
// like a brand-new one — no residual capacities, flows, or adjacency from
// the previous solve may leak into the next.
func TestResetReusesStorageAndSolvesFresh(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 3, 5)
	if got := g.MaxFlow(0, 3); got != 5 {
		t.Fatalf("first solve = %v, want 5", got)
	}

	// Reset to a larger network with a different shape.
	g.Reset(6)
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 2, 4)
	g.AddEdge(1, 5, 2)
	g.AddEdge(2, 5, 4)
	if got := g.MaxFlow(0, 5); got != 6 {
		t.Fatalf("post-reset solve = %v, want 6", got)
	}

	// Reset to a smaller network: stale adjacency must be gone.
	g.Reset(2)
	g.AddEdge(0, 1, 7)
	if got := g.MaxFlow(0, 1); got != 7 {
		t.Fatalf("shrunk solve = %v, want 7", got)
	}

	// Same instance solved repeatedly via Reset must be deterministic.
	for i := 0; i < 3; i++ {
		g.Reset(4)
		g.AddEdge(0, 1, 5)
		g.AddEdge(0, 2, 3)
		g.AddEdge(1, 3, 4)
		g.AddEdge(2, 3, 3)
		if got := g.MaxFlow(0, 3); got != 7 {
			t.Fatalf("repeat %d = %v, want 7", i, got)
		}
	}
}

// refGraph is an Edmonds–Karp solver (one BFS per augmenting path, the
// algorithm the paper cites), kept as the reference the differential
// tests compare Graph against. It shares no code with Graph beyond the
// paired-edge convention.
type refGraph struct {
	n     int
	edges []refEdge
	adj   [][]int
}

type refEdge struct {
	to  int
	cap float64
}

func newRef(n int) *refGraph { return &refGraph{n: n, adj: make([][]int, n)} }

func (g *refGraph) addEdge(u, v int, capacity float64) {
	id := len(g.edges)
	g.edges = append(g.edges, refEdge{to: v, cap: capacity}, refEdge{to: u, cap: 0})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id+1)
}

func (g *refGraph) maxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	var total float64
	parent := make([]int, g.n)
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		queue := []int{s}
		for head := 0; head < len(queue) && parent[t] == -1; head++ {
			u := queue[head]
			for _, id := range g.adj[u] {
				e := g.edges[id]
				if e.cap > 0 && parent[e.to] == -1 {
					parent[e.to] = id
					queue = append(queue, e.to)
				}
			}
		}
		if parent[t] == -1 {
			return total
		}
		bottleneck := math.Inf(1)
		for v := t; v != s; v = g.edges[parent[v]^1].to {
			bottleneck = math.Min(bottleneck, g.edges[parent[v]].cap)
		}
		for v := t; v != s; v = g.edges[parent[v]^1].to {
			g.edges[parent[v]].cap -= bottleneck
			g.edges[parent[v]^1].cap += bottleneck
		}
		total += bottleneck
	}
}

func (g *refGraph) minCut(s int) []bool {
	seen := make([]bool, g.n)
	seen[s] = true
	queue := []int{s}
	for head := 0; head < len(queue); head++ {
		for _, id := range g.adj[queue[head]] {
			if e := g.edges[id]; e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return seen
}

// network is a flow instance in edge-list form, so the same instance can
// be loaded into the solver under test, the reference, and a reused graph.
type network struct {
	n, s, t int
	edges   []netEdge
}

type netEdge struct {
	u, v int
	cap  float64
}

func (nw *network) add(u, v int, c float64) { nw.edges = append(nw.edges, netEdge{u, v, c}) }

// load resets g to the instance.
func (nw *network) load(g *Graph) {
	g.Reset(nw.n)
	for _, e := range nw.edges {
		g.AddEdge(e.u, e.v, e.cap)
	}
}

func (nw *network) ref() *refGraph {
	g := newRef(nw.n)
	for _, e := range nw.edges {
		g.addEdge(e.u, e.v, e.cap)
	}
	return g
}

// randomFlowNetwork is a seeded random digraph (cycles, antiparallel and
// parallel edges, some zero capacities) with real-valued capacities.
func randomFlowNetwork(rng *rand.Rand) *network {
	n := 2 + rng.Intn(60)
	nw := &network{n: n, s: 0, t: n - 1}
	m := n * (1 + rng.Intn(5))
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := rng.Float64() * 10
		if rng.Intn(10) == 0 {
			c = 0
		}
		nw.add(u, v, c)
	}
	return nw
}

// projectSelectionNetwork is the network the planner builds (opt.SolvePSP):
// source → positive-profit projects, negative-profit projects → sink, Inf
// prerequisite edges project → requirement. Profits are log-uniform over
// 1e-6 … 1e12 — the spread the planner's bigM / reward tiers put into one
// instance — and prerequisites point at lower-numbered projects (a DAG,
// like the a_i / b_i construction).
func projectSelectionNetwork(rng *rand.Rand) *network {
	p := 2 + rng.Intn(80)
	nw := &network{n: p + 2, s: p, t: p + 1}
	for i := 0; i < p; i++ {
		profit := math.Pow(10, -6+18*rng.Float64())
		if rng.Intn(2) == 0 {
			nw.add(nw.s, i, profit)
		} else {
			nw.add(i, nw.t, profit)
		}
	}
	for i := 1; i < p; i++ {
		for k := rng.Intn(4); k > 0; k-- {
			nw.add(i, rng.Intn(i), Inf)
		}
	}
	return nw
}

// planWideNetwork is the project-selection network benchmark/layers.go
// solves for maxflow.solve_ms: plan-wide's 50 layers × 20 nodes with
// fan-in 5, two projects per node, seeded profits in (-1, 1).
func planWideNetwork(seed int64) *network {
	const layers, width, fanIn = 50, 20, 5
	rng := rand.New(rand.NewSource(seed))
	projects := 2 * layers * width
	nw := &network{n: projects + 2, s: projects, t: projects + 1}
	for i := 0; i < projects; i++ {
		if p := rng.Float64()*2 - 1; p > 0 {
			nw.add(nw.s, i, p)
		} else {
			nw.add(i, nw.t, -p)
		}
	}
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			i := l*width + w
			nw.add(2*i+1, 2*i, Inf)
			if l == 0 {
				continue
			}
			for k := 0; k < fanIn; k++ {
				nw.add(2*i+1, 2*((l-1)*width+(w+k)%width), Inf)
			}
		}
	}
	return nw
}

// checkAgainstReference solves nw with g (reused across calls) and with
// the reference Edmonds–Karp: the flow values must agree to 1e-9 relative
// and the minimum cuts must be the same vertex set — the planner reads
// states off the cut, so "same plans" means exactly that.
func checkAgainstReference(t *testing.T, label string, g *Graph, nw *network) {
	t.Helper()
	nw.load(g)
	got := g.MaxFlow(nw.s, nw.t)
	ref := nw.ref()
	want := ref.maxFlow(nw.s, nw.t)
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: MaxFlow = %v, reference %v", label, got, want)
	}
	cut, refCut := g.MinCut(nw.s), ref.minCut(nw.s)
	for v := range refCut {
		if cut[v] != refCut[v] {
			t.Fatalf("%s: node %d on source side = %v, reference %v", label, v, cut[v], refCut[v])
		}
	}
	if !cut[nw.s] || (nw.s != nw.t && cut[nw.t]) {
		t.Fatalf("%s: cut does not separate source from sink", label)
	}
}

func TestDifferentialRandomNetworks(t *testing.T) {
	g := New(0)
	for seed := int64(0); seed < 300; seed++ {
		checkAgainstReference(t, "random", g, randomFlowNetwork(rand.New(rand.NewSource(seed))))
	}
}

func TestDifferentialProjectSelectionTiers(t *testing.T) {
	g := New(0)
	for seed := int64(0); seed < 300; seed++ {
		checkAgainstReference(t, "psp", g, projectSelectionNetwork(rand.New(rand.NewSource(seed))))
	}
}

func TestDifferentialPlanWideShape(t *testing.T) {
	g := New(0)
	for seed := int64(1); seed <= 5; seed++ {
		nw := planWideNetwork(seed)
		if len(nw.edges) != 7900 {
			t.Fatalf("plan-wide network has %d edges, want 7900", len(nw.edges))
		}
		checkAgainstReference(t, "plan-wide", g, nw)
	}
}

// TestDeepChain: the blocking-flow search is iterative, so a path 5 000
// edges long costs a slice, not 5 000 stack frames.
func TestDeepChain(t *testing.T) {
	const depth = 5000
	nw := &network{n: depth + 1, s: 0, t: depth}
	for i := 0; i < depth; i++ {
		c := 2.0 + float64(i%7)
		if i == depth/2 {
			c = 0.5
		}
		nw.add(i, i+1, c)
	}
	g := New(0)
	nw.load(g)
	if got := g.MaxFlow(nw.s, nw.t); got != 0.5 {
		t.Fatalf("MaxFlow = %v, want 0.5", got)
	}
	cut := g.MinCut(nw.s)
	for v := range cut {
		if want := v <= depth/2; cut[v] != want {
			t.Fatalf("node %d on source side = %v, want %v", v, cut[v], want)
		}
	}
	checkAgainstReference(t, "deep chain", g, nw)
}

func TestZeroCapacityAndParallelEdges(t *testing.T) {
	nw := &network{n: 4, s: 0, t: 3}
	nw.add(0, 1, 0) // never admissible
	nw.add(0, 1, 2)
	nw.add(0, 1, 3) // parallel
	nw.add(1, 3, 4)
	nw.add(0, 2, 1)
	nw.add(2, 3, 0) // dead end behind a positive edge
	g := New(0)
	nw.load(g)
	if got := g.MaxFlow(0, 3); got != 4 {
		t.Fatalf("MaxFlow = %v, want 4", got)
	}
	want := []bool{true, true, true, false}
	for v, c := range g.MinCut(0) {
		if c != want[v] {
			t.Fatalf("node %d on source side = %v, want %v", v, c, want[v])
		}
	}
	checkAgainstReference(t, "zero/parallel", g, nw)
}

// TestSecondMaxFlowKeepsCut: a second MaxFlow on a solved graph finds no
// further flow and leaves the cut where it was.
func TestSecondMaxFlowKeepsCut(t *testing.T) {
	nw := planWideNetwork(1)
	g := New(0)
	nw.load(g)
	g.MaxFlow(nw.s, nw.t)
	first := append([]bool(nil), g.MinCut(nw.s)...)
	if again := g.MaxFlow(nw.s, nw.t); again != 0 {
		t.Fatalf("second MaxFlow = %v, want 0", again)
	}
	for v, c := range g.MinCut(nw.s) {
		if c != first[v] {
			t.Fatalf("node %d changed sides after a second MaxFlow", v)
		}
	}
}

// TestResetEqualsFreshGraph: a graph that solved other instances first
// must, after Reset, return bit-identical flow and the same cut as a
// brand-new graph — no residual capacity, adjacency or level label leaks.
func TestResetEqualsFreshGraph(t *testing.T) {
	reused := New(0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		var nw *network
		switch i % 3 {
		case 0:
			nw = randomFlowNetwork(rng)
		case 1:
			nw = projectSelectionNetwork(rng)
		default:
			nw = planWideNetwork(int64(i))
		}
		nw.load(reused)
		fresh := New(nw.n)
		for _, e := range nw.edges {
			fresh.AddEdge(e.u, e.v, e.cap)
		}
		if a, b := reused.MaxFlow(nw.s, nw.t), fresh.MaxFlow(nw.s, nw.t); a != b {
			t.Fatalf("instance %d: reused graph flow %v, fresh %v", i, a, b)
		}
		a, b := reused.MinCut(nw.s), fresh.MinCut(nw.s)
		for v := range b {
			if a[v] != b[v] {
				t.Fatalf("instance %d: node %d differs between reused and fresh graph", i, v)
			}
		}
	}
}

// TestAddEdgeAfterSolve: edges added to a solved graph join the residual
// network (the adjacency index follows the edge list).
func TestAddEdgeAfterSolve(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	if got := g.MaxFlow(0, 2); got != 2 {
		t.Fatalf("MaxFlow = %v, want 2", got)
	}
	g.AddEdge(1, 2, 1)
	if got := g.MaxFlow(0, 2); got != 1 {
		t.Fatalf("MaxFlow after AddEdge = %v, want 1 more", got)
	}
	if cut := g.MinCut(0); !cut[1] || cut[2] {
		t.Fatalf("cut = %v, want {0,1}", cut)
	}
}

// TestReusedGraphSolveAllocatesNothing pins the steady state the planner
// runs in: Reset, rebuild, MaxFlow and MinCut on a graph that has solved
// the same shape before touch the heap zero times.
func TestReusedGraphSolveAllocatesNothing(t *testing.T) {
	nw := planWideNetwork(1)
	g := New(0)
	nw.load(g)
	g.MaxFlow(nw.s, nw.t)
	g.MinCut(nw.s)
	allocs := testing.AllocsPerRun(10, func() {
		nw.load(g)
		g.MaxFlow(nw.s, nw.t)
		g.MinCut(nw.s)
	})
	if allocs != 0 {
		t.Fatalf("reused graph solve allocates %v times per run, want 0", allocs)
	}
}

var benchFlow float64

// BenchmarkMaxFlowPlanWide times what benchmark/layers.go reports as
// maxflow.solve_ms: one MaxFlow on the plan-wide project-selection
// network (2 002 nodes, 7 900 edges), rebuilt on a reused graph outside
// the timer.
func BenchmarkMaxFlowPlanWide(b *testing.B) {
	nw := planWideNetwork(1)
	g := New(0)
	nw.load(g)
	g.MaxFlow(nw.s, nw.t) // size the scratch once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw.load(g)
		b.StartTimer()
		benchFlow = g.MaxFlow(nw.s, nw.t)
	}
}
