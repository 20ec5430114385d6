package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// The implementations Track replaced, kept as its oracle: signatures hashed
// from scratch, originality and the metric carry through a signature map
// whose last node wins.

func oracleSignatures(d *DAG) map[*Node]string {
	sigs := make(map[*Node]string, d.Len())
	for _, n := range d.TopoSort() {
		var ps []string
		for _, p := range n.Parents() {
			ps = append(ps, sigs[p])
		}
		sort.Strings(ps)
		buf := append([]byte(n.OpSignature), 0)
		for _, s := range ps {
			buf = append(append(buf, s...), 0)
		}
		sum := sha256.Sum256(buf)
		sigs[n] = hex.EncodeToString(sum[:])
	}
	return sigs
}

func oracleIndex(prev *DAG) map[string]*Node {
	idx := make(map[string]*Node, prev.Len())
	for _, n := range prev.Nodes() {
		idx[n.ChainSignature()] = n
	}
	return idx
}

func oracleOriginalNodes(d, prev *DAG) map[*Node]bool {
	orig := make(map[*Node]bool)
	idx := oracleIndex(prev)
	for _, n := range d.Nodes() {
		if _, ok := idx[n.ChainSignature()]; !ok {
			orig[n] = true
		}
	}
	return orig
}

func oracleCarryMetrics(d, prev *DAG) {
	idx := oracleIndex(prev)
	for _, n := range d.Nodes() {
		if p, ok := idx[n.ChainSignature()]; ok && p.Metrics.Known {
			n.Metrics = p.Metrics
		}
	}
}

// specNode is one node of a generated workflow: parents are indices of
// earlier nodes, in input order.
type specNode struct {
	name, op string
	parents  []int
}

// build compiles a spec into a DAG whose nodes start with metrics drawn
// from seed, so carried and kept metrics are told apart.
func build(spec []specNode, seed int64) *DAG {
	rng := rand.New(rand.NewSource(seed))
	d := NewDAG()
	for _, s := range spec {
		n := d.MustAddNode(s.name, KindExtractor, DPR, s.op, true)
		for _, p := range s.parents {
			if err := d.AddEdge(d.Nodes()[p], n); err != nil {
				panic(err)
			}
		}
		n.Metrics = Metrics{Compute: time.Duration(rng.Intn(1000)), Known: rng.Intn(3) > 0}
	}
	return d
}

// randomSpec draws a DAG of n nodes. With dupOps, operator signatures come
// from a pool smaller than n, so signatures repeat across names.
func randomSpec(rng *rand.Rand, n int, dupOps bool) []specNode {
	spec := make([]specNode, n)
	for i := range spec {
		spec[i].name = fmt.Sprintf("n%d", i)
		spec[i].op = fmt.Sprintf("op%d", i)
		if dupOps {
			spec[i].op = fmt.Sprintf("op%d", rng.Intn(3))
		}
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.3 {
				spec[i].parents = append(spec[i].parents, j)
			}
		}
		rng.Shuffle(len(spec[i].parents), func(a, b int) {
			spec[i].parents[a], spec[i].parents[b] = spec[i].parents[b], spec[i].parents[a]
		})
	}
	return spec
}

// edit applies one to three random edits: a params change, an added or
// removed node, a rewired or reordered parent, an operator signature
// copied from another name, or a rename.
func edit(rng *rand.Rand, spec []specNode, fresh *int) []specNode {
	out := make([]specNode, len(spec))
	for i, s := range spec {
		out[i] = specNode{s.name, s.op, append([]int(nil), s.parents...)}
	}
	for k := 1 + rng.Intn(3); k > 0 && len(out) > 1; k-- {
		i := rng.Intn(len(out))
		switch rng.Intn(7) {
		case 0: // params change
			out[i].op += "'"
		case 1: // added node
			*fresh++
			s := specNode{name: fmt.Sprintf("x%d", *fresh), op: fmt.Sprintf("xop%d", *fresh)}
			for j := range out {
				if rng.Float64() < 0.3 {
					s.parents = append(s.parents, j)
				}
			}
			out = append(out, s)
		case 2: // removed node: its consumers lose the input
			out = append(out[:i:i], out[i+1:]...)
			for j := range out {
				var ps []int
				for _, p := range out[j].parents {
					switch {
					case p < i:
						ps = append(ps, p)
					case p > i:
						ps = append(ps, p-1)
					}
				}
				out[j].parents = ps
			}
		case 3: // rewired parent
			if i > 0 && len(out[i].parents) > 0 {
				out[i].parents[rng.Intn(len(out[i].parents))] = rng.Intn(i)
				out[i].parents = dedup(out[i].parents)
			}
		case 4: // reordered parents
			rng.Shuffle(len(out[i].parents), func(a, b int) {
				out[i].parents[a], out[i].parents[b] = out[i].parents[b], out[i].parents[a]
			})
		case 5: // duplicated operator signature across names
			out[i].op = out[rng.Intn(len(out))].op
		case 6: // renamed node
			*fresh++
			out[i].name = fmt.Sprintf("r%d", *fresh)
		}
	}
	return out
}

func dedup(ps []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// TestTrackMatchesOracle walks random chains of edited DAGs. At every step
// Track's signatures must equal a from-scratch hash byte for byte, and its
// originality and carried metrics must equal the map-based oracle's —
// including which node wins when signatures repeat.
func TestTrackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 400; c++ {
		spec := randomSpec(rng, 2+rng.Intn(30), rng.Intn(4) == 0)
		fresh := 0
		var prev *DAG
		for step := 0; step < 4; step++ {
			seed := rng.Int63()
			d, oracle := build(spec, seed), build(spec, seed)
			d.Track(prev)

			want := oracleSignatures(oracle)
			for _, n := range oracle.Nodes() {
				n.chainSig = want[n]
			}
			var orig map[*Node]bool
			if prev != nil {
				orig = oracleOriginalNodes(oracle, prev)
				oracleCarryMetrics(oracle, prev)
			}
			if got := d.OriginalNodes(prev); prev != nil && len(got) != len(orig) {
				t.Fatalf("case %d step %d: OriginalNodes finds %d originals, oracle %d", c, step, len(got), len(orig))
			}
			for i, n := range d.Nodes() {
				o := oracle.Nodes()[i]
				if n.ChainSignature() != o.ChainSignature() {
					t.Fatalf("case %d step %d: %s signature %s, from scratch %s", c, step, n.Name, n.ChainSignature(), o.ChainSignature())
				}
				if wantOrig := prev == nil || orig[o]; n.Original() != wantOrig {
					t.Fatalf("case %d step %d: %s original=%v, oracle %v", c, step, n.Name, n.Original(), wantOrig)
				}
				if n.Metrics != o.Metrics {
					t.Fatalf("case %d step %d: %s metrics %+v, oracle %+v", c, step, n.Name, n.Metrics, o.Metrics)
				}
			}
			prev = d
			spec = edit(rng, spec, &fresh)
		}
	}
}

// TestTrackIgnoresStaleSignatures: a previous DAG edited after it was
// tracked (a new edge, an operator signature changed in place) or rebuilt
// from a snapshot lends no signature by name.
func TestTrackIgnoresStaleSignatures(t *testing.T) {
	prev := chain(t, 3)
	prev.Track(nil)
	prev.Node("a1").OpSignature = "op1-edited" // its chainSig still says op1
	cur := chain(t, 3)
	cur.Track(prev)
	if want := oracleSignatures(cur); cur.Node("a2").ChainSignature() != want[cur.Node("a2")] {
		t.Fatal("signature differs from a from-scratch hash")
	}
	if cur.Node("a1").Original() {
		t.Fatal("a1 is equivalent to prev's a1 (same declaration when it was signed)")
	}

	prev = chain(t, 3)
	prev.Track(nil)
	x := prev.MustAddNode("x", KindSource, DPR, "x", true)
	if err := prev.AddEdge(x, prev.Node("a1")); err != nil {
		t.Fatal(err)
	}
	cur = chain(t, 3)
	cur.Track(prev)
	if want := oracleSignatures(cur); cur.Node("a1").ChainSignature() != want[cur.Node("a1")] {
		t.Fatal("took the signature of a node that gained a parent after signing")
	}

	ghost := FromSnapshot(Snapshot{Nodes: []NodeSnapshot{{Name: "a0", ChainSignature: "bogus"}}})
	cur = chain(t, 1)
	cur.Node("a0").OpSignature = ""
	cur.Track(ghost)
	if cur.Node("a0").ChainSignature() == "bogus" {
		t.Fatal("took a signature from a snapshot ghost by name")
	}
}

// TestTrackSmallEditHashesOnlyDownstream pins what the walk saves: on a
// leaf edit of a wide DAG, every unchanged node keeps the very string its
// predecessor held (taken, not hashed again), and only the leaf is
// original.
func TestTrackSmallEditHashesOnlyDownstream(t *testing.T) {
	d0 := layeredDAGDistinct(10, 20)
	d0.Track(nil)
	d1 := layeredDAGDistinct(10, 20)
	leaf := d1.Nodes()[d1.Len()-1]
	leaf.OpSignature += "'"
	d1.Track(d0)
	for i, n := range d1.Nodes() {
		p := d0.Nodes()[i]
		if n == leaf {
			if n.ChainSignature() == p.ChainSignature() || !n.Original() {
				t.Fatal("edited leaf kept its signature")
			}
			continue
		}
		if unsafe.StringData(n.ChainSignature()) != unsafe.StringData(p.ChainSignature()) || n.Original() {
			t.Fatalf("%s was hashed again although only the leaf was edited", n.Name)
		}
	}
}

// layeredDAGDistinct is layeredDAG's shape with one operator signature per
// name and a fixed wiring.
func layeredDAGDistinct(layers, width int) *DAG {
	d := NewDAG()
	var prev []*Node
	for l := 0; l < layers; l++ {
		var cur []*Node
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("n%d_%d", l, w)
			n := d.MustAddNode(name, KindExtractor, DPR, "op|"+name, true)
			for k := 0; l > 0 && k < 3; k++ {
				if err := d.AddEdge(prev[(w+k)%width], n); err != nil {
					panic(err)
				}
			}
			cur = append(cur, n)
		}
		prev = cur
	}
	return d
}
