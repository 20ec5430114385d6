// Package maxflow implements maximum-flow / minimum-cut computation on
// directed graphs using Dinic's algorithm (BFS level graph, then a
// blocking flow found by a current-arc depth-first search), as used by
// the HELIX OPT-EXEC-PLAN solver.
//
// The paper (§5.2) reduces the optimal-execution-plan problem to the
// PROJECT SELECTION PROBLEM, which in turn reduces to MAX-FLOW. It cites
// Edmonds–Karp's O(V·E²) bound, but the reduction only needs *a* maximum
// flow: the plan is read off the inclusion-minimal minimum cut (the nodes
// residually reachable from the source), and that vertex set is the same
// for every maximum flow. Dinic's O(V²·E) bound — and far better behaviour
// on the shallow, wide project-selection networks the planner builds —
// removes one full BFS per augmenting path.
//
// helixlint (plandeterminism) holds this package to byte-stable output:
// min-cut assignments feed the plan fingerprint, so equal inputs must
// solve identically.
//
//lint:deterministic
package maxflow

import (
	"fmt"
	"math"
	"slices"
)

// Inf is the capacity used for "infinite" edges (prerequisite edges in the
// project-selection reduction). Using a finite sentinel keeps arithmetic
// exact while being larger than any sum of finite capacities in practice.
const Inf = math.MaxFloat64 / 4

// edge is a directed edge in the residual graph. Edges are stored in pairs:
// edge i and edge i^1 are reverses of each other.
type edge struct {
	to  int32
	cap float64
}

// Graph is a flow network over nodes 0..N-1. The zero value is not usable;
// construct with New. A Graph can be reused across solves with Reset,
// which retains the edge, adjacency and traversal storage — callers that
// solve one network per iteration (the OPT-EXEC-PLAN planner) allocate
// nothing in steady state.
type Graph struct {
	n     int
	edges []edge // paired: i and i^1 are mutual reverses

	// Adjacency in forward-star form, rebuilt by index whenever edges were
	// added since the last build: arcs holds edge ids grouped by tail node
	// (insertion order within a node), node u's ids are
	// arcs[first[u]:first[u+1]]. Residual capacities stay in edges, so the
	// index is a pure function of the edge list.
	first   []int32
	arcs    []int32
	indexed int // len(edges) the index was built for; -1 after Reset

	// Traversal scratch reused across MaxFlow/MinCut calls, sized to n.
	level []int32 // BFS distance from the source, -1 if unreached
	arc   []int32 // current-arc pointer per node (position in arcs)
	queue []int32 // BFS queue
	path  []int32 // edge ids of the DFS path from the source
	seen  []bool  // MinCut result
}

// New returns an empty flow network with n nodes.
func New(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset reinitializes the graph in place to n nodes and no edges, keeping
// previously allocated edge, adjacency, and traversal storage for reuse.
// After Reset the graph is equivalent to New(n) except for capacity
// retained in its internal slices.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("maxflow: negative node count %d", n))
	}
	if n > math.MaxInt32-1 {
		panic(fmt.Sprintf("maxflow: node count %d exceeds the int32 index range", n))
	}
	g.n = n
	g.edges = g.edges[:0]
	g.indexed = -1
}

// NumNodes reports the number of nodes in the network.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity and returns its
// edge index. Capacities must be non-negative. Adding an edge also adds a
// residual reverse edge with zero capacity.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v on edge (%d,%d)", capacity, u, v))
	}
	id := len(g.edges)
	if id > math.MaxInt32-2 {
		panic("maxflow: edge count exceeds the int32 index range")
	}
	g.edges = append(g.edges, edge{to: int32(v), cap: capacity}, edge{to: int32(u), cap: 0})
	return id
}

// resize returns s with length n, reusing its storage when it is large
// enough. Contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// index (re)builds the forward-star adjacency by counting sort on each
// edge's tail (the head of its paired reverse), preserving insertion
// order within a node so traversal order — and with it the sequence of
// augmentations — is a deterministic function of the AddEdge sequence.
// It also sizes arc, which it borrows as the per-node write cursor.
func (g *Graph) index() {
	if g.indexed == len(g.edges) {
		return
	}
	first := resize(g.first, g.n+1)
	clear(first)
	for id := range g.edges {
		first[g.edges[id^1].to+1]++
	}
	for u := 0; u < g.n; u++ {
		first[u+1] += first[u]
	}
	arcs := resize(g.arcs, len(g.edges))
	fill := resize(g.arc, g.n)
	copy(fill, first[:g.n])
	for id := range g.edges {
		u := g.edges[id^1].to
		arcs[fill[u]] = int32(id)
		fill[u]++
	}
	g.first, g.arcs, g.arc = first, arcs, fill
	g.indexed = len(g.edges)
}

// MaxFlow computes the maximum flow from s to t using Dinic's algorithm
// and returns its value. The graph's residual capacities are updated in
// place; call MinCut afterwards to read the cut. Calling MaxFlow a second
// time on the same graph continues from the current residual state (and
// therefore returns 0 additional flow for the same s,t).
//
// An edge is admissible iff its residual capacity is strictly positive,
// with no tolerance: capacities span ~1e-4 … 1e12 plus Inf in one network,
// so no epsilon fits them all, and none is needed — every augmentation
// zeroes its bottleneck edge exactly (x − x), so each phase terminates.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		panic(fmt.Sprintf("maxflow: source/sink (%d,%d) out of range [0,%d)", s, t, g.n))
	}
	if s == t {
		return 0
	}
	g.index()
	g.level = resize(g.level, g.n)
	edges, arcs, first, level, arc := g.edges, g.arcs, g.first, g.level, g.arc
	src, sink := int32(s), int32(t)

	var total float64
	for g.levels(src, sink) {
		// Blocking flow: an iterative depth-first search over admissible
		// level-graph edges (recursion would be as deep as the longest
		// chain — thousands of frames). arc[u] is u's current-arc pointer:
		// an arc found saturated or leading to a dead end is never
		// rescanned within the phase.
		copy(arc, first[:g.n])
		path := g.path[:0]
		u := src
	search:
		for {
			if u == sink {
				bottleneck := math.Inf(1)
				for _, id := range path {
					if c := edges[id].cap; c < bottleneck {
						bottleneck = c
					}
				}
				// Augment, and retreat to the tail of the saturated edge
				// nearest the source: everything before it is still live.
				cut := -1
				for k, id := range path {
					edges[id].cap -= bottleneck
					edges[id^1].cap += bottleneck
					if cut < 0 && edges[id].cap <= 0 {
						cut = k
					}
				}
				total += bottleneck
				u = edges[path[cut]^1].to
				path = path[:cut]
				continue
			}
			for end := first[u+1]; arc[u] < end; arc[u]++ {
				id := arcs[arc[u]]
				if e := edges[id]; e.cap > 0 && level[e.to] == level[u]+1 {
					path = append(path, id)
					u = e.to
					continue search
				}
			}
			if u == src {
				break
			}
			// Dead end: step back and move the parent past this arc.
			id := path[len(path)-1]
			path = path[:len(path)-1]
			u = edges[id^1].to
			arc[u]++
		}
		g.path = path[:0]
	}
	return total
}

// levels labels every node with its BFS distance from s over edges with
// positive residual capacity and reports whether t was reached. The
// search stops expanding once t's level is complete: deeper nodes cannot
// lie on a shortest augmenting path.
func (g *Graph) levels(s, t int32) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	// The queue is consumed via a head index (not re-slicing) so the
	// scratch buffer's full capacity survives for the next call.
	queue := append(g.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if level[t] >= 0 && level[u] >= level[t] {
			break
		}
		for _, id := range g.arcs[g.first[u]:g.first[u+1]] {
			if e := g.edges[id]; e.cap > 0 && level[e.to] < 0 {
				level[e.to] = level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue[:0]
	return level[t] >= 0
}

// MinCut returns the set of nodes on the source side of a minimum s-t cut.
// It must be called after MaxFlow; it walks the residual graph from s.
// The returned slice is indexed by node: sourceSide[v] is true iff v is
// reachable from s in the residual graph — the inclusion-minimal minimum
// cut, which is the same set for every maximum flow. The slice is scratch
// owned by the graph: it is valid until the next MinCut or Reset.
func (g *Graph) MinCut(s int) []bool {
	if s < 0 || s >= g.n {
		panic(fmt.Sprintf("maxflow: source %d out of range [0,%d)", s, g.n))
	}
	g.index()
	seen := resize(g.seen, g.n)
	clear(seen)
	seen[s] = true
	queue := append(g.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range g.arcs[g.first[u]:g.first[u+1]] {
			if e := g.edges[id]; e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue[:0]
	g.seen = seen
	return seen
}
