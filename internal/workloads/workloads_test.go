package workloads

import (
	"context"
	"testing"

	"helix"
	"helix/internal/core"
	"helix/internal/ml"
)

func init() { RegisterAll() }

// tiny returns a scale small enough for unit tests.
func tiny() Scale { return Scale{Rows: 0, CostFactor: 2} }

func allWorkloads() []Workload {
	return []Workload{
		NewCensus(tiny(), 1),
		NewGenomics(tiny(), 1),
		NewIE(tiny(), 1),
		NewMNIST(tiny(), 1),
	}
}

func TestAllWorkloadsCompile(t *testing.T) {
	for _, wl := range allWorkloads() {
		wf := wl.Build()
		prog, err := wf.Compile()
		if err != nil {
			t.Fatalf("%s: %v", wl.Name(), err)
		}
		if prog.DAG.Len() < 4 {
			t.Fatalf("%s: only %d nodes", wl.Name(), prog.DAG.Len())
		}
		if len(prog.DAG.Outputs()) == 0 {
			t.Fatalf("%s: no outputs", wl.Name())
		}
	}
}

func TestAllWorkloadsRunEndToEnd(t *testing.T) {
	ctx := context.Background()
	for _, wl := range allWorkloads() {
		wl := wl
		t.Run(wl.Name(), func(t *testing.T) {
			t.Parallel()
			sess, err := helix.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(ctx, wl.Build())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Values) == 0 {
				t.Fatal("no outputs")
			}
		})
	}
}

func TestCensusLearnsIncome(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), NewCensus(tiny(), 1).Build())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Values["checked"].(EvalReport)
	if acc := rep.Metrics["accuracy"]; acc < 0.7 {
		t.Fatalf("census accuracy %.3f < 0.7", acc)
	}
}

func TestCensusMutationsChangeOnlyTheirComponent(t *testing.T) {
	c := NewCensus(tiny(), 1)
	base, err := c.Build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	base.DAG.ComputeSignatures()

	// A PPR mutation must leave every non-PPR node equivalent.
	c.Mutate(1, core.PPR)
	mut, err := c.Build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	mut.DAG.ComputeSignatures()
	for _, n := range mut.DAG.Nodes() {
		old := base.DAG.Node(n.Name)
		if old == nil {
			continue
		}
		if n.Component != core.PPR && n.ChainSignature() != old.ChainSignature() {
			t.Fatalf("PPR mutation changed %s node %q", n.Component, n.Name)
		}
		if n.Component == core.PPR && n.ChainSignature() == old.ChainSignature() {
			t.Fatalf("PPR mutation did not change reducer %q", n.Name)
		}
	}
}

func TestCensusLIMutationPreservesDPR(t *testing.T) {
	c := NewCensus(tiny(), 1)
	base, _ := c.Build().Compile()
	base.DAG.ComputeSignatures()
	c.Mutate(5, core.LI)
	mut, _ := c.Build().Compile()
	mut.DAG.ComputeSignatures()
	for _, n := range mut.DAG.Nodes() {
		old := base.DAG.Node(n.Name)
		if old == nil {
			continue
		}
		if n.Component == core.DPR && n.ChainSignature() != old.ChainSignature() {
			t.Fatalf("L/I mutation changed DPR node %q", n.Name)
		}
	}
	// The learner must have changed.
	if mut.DAG.Node("predictions").ChainSignature() == base.DAG.Node("predictions").ChainSignature() {
		t.Fatal("L/I mutation did not change the learner")
	}
}

func TestCensusDPRMutationTogglesField(t *testing.T) {
	c := NewCensus(tiny(), 1)
	n0 := len(c.Build().Ops())
	c.Mutate(0, core.DPR) // toggles marital_status in
	n1 := len(c.Build().Ops())
	if n1 != n0+1 {
		t.Fatalf("ops %d → %d, want +1 extractor", n0, n1)
	}
	c.Mutate(0, core.DPR) // toggles it back out
	if n2 := len(c.Build().Ops()); n2 != n0 {
		t.Fatalf("ops %d → %d, want back to original", n1, n2)
	}
}

func TestGenomicsClusterSummaryShape(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenomics(tiny(), 1)
	res, err := sess.Run(context.Background(), g.Build())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Values["clusterSummary"].(ml.ClusterSummary)
	if sum.K < 2 {
		t.Fatalf("K = %d", sum.K)
	}
	var members int
	for _, size := range sum.Sizes {
		members += size
	}
	if members == 0 {
		t.Fatal("no gene vectors clustered")
	}
}

func TestGenomicsEmbeddingsRecoverFunctionGroups(t *testing.T) {
	// The clustering should group genes of the same latent function more
	// often than chance: measure purity of the dominant group per cluster.
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenomics(tiny(), 1)
	res, err := sess.Run(context.Background(), g.Build())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Values["clusterSummary"].(ml.ClusterSummary)
	if sum.Inertia < 0 {
		t.Fatal("negative inertia")
	}
}

func TestIEFindsSpouses(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), NewIE(tiny(), 1).Build())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Values["f1"].(EvalReport)
	if f1 := rep.Metrics["f1"]; f1 < 0.5 {
		t.Fatalf("IE F1 %.3f < 0.5", f1)
	}
}

func TestIEMutationsNeverTouchParse(t *testing.T) {
	// Figure 5c's speedup rests on the parse being reusable forever.
	w := NewIE(tiny(), 1)
	base, _ := w.Build().Compile()
	base.DAG.ComputeSignatures()
	parseSig := base.DAG.Node("parsedDocs").ChainSignature()
	for it, comp := range w.Sequence() {
		if it == 0 {
			continue
		}
		w.Mutate(it, comp)
		p, err := w.Build().Compile()
		if err != nil {
			t.Fatal(err)
		}
		p.DAG.ComputeSignatures()
		if p.DAG.Node("parsedDocs").ChainSignature() != parseSig {
			t.Fatalf("iteration %d mutated the NLP parse", it)
		}
	}
}

func TestMNISTClassifiesDigits(t *testing.T) {
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), NewMNIST(tiny(), 1).Build())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Values["checked"].(EvalReport)
	if acc := rep.Metrics["accuracy"]; acc < 0.7 {
		t.Fatalf("MNIST accuracy %.3f < 0.7", acc)
	}
}

func TestMNISTRFFNeverReused(t *testing.T) {
	// When the learner changes (L/I iteration), its nondeterministic input
	// must be recomputed — never loaded from a previous draw (Definition 3)
	// — and its output must never reach the store.
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := NewMNIST(tiny(), 1)
	res0, err := sess.Run(ctx, m.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res0.Nodes["rffFeatures"].Bytes != 0 {
		t.Fatal("nondeterministic DPR output was materialized")
	}
	m.Mutate(1, core.LI)
	res, err := sess.Run(ctx, m.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes["rffFeatures"].State != core.StateCompute {
		t.Fatalf("rffFeatures state = %v, want fresh recompute on L/I change", res.Nodes["rffFeatures"].State)
	}
}

func TestMNISTPPRIterationReusesLI(t *testing.T) {
	// A PPR change reuses the materialized L/I output: DPR and L/I prune.
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := NewMNIST(tiny(), 1)
	if _, err := sess.Run(ctx, m.Build()); err != nil {
		t.Fatal(err)
	}
	m.Mutate(4, core.PPR)
	res, err := sess.Run(ctx, m.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes["digitPred"].State == core.StateCompute {
		t.Fatal("PPR iteration recomputed the learner")
	}
	if res.Nodes["rffFeatures"].State == core.StateCompute {
		t.Fatal("PPR iteration recomputed the nondeterministic DPR")
	}
}

func TestSequencesMatchPaperShapes(t *testing.T) {
	census := NewCensus(tiny(), 1)
	if len(census.Sequence()) != 10 {
		t.Fatal("census sequence must have 10 iterations")
	}
	// Census: PPR dominates (social sciences, §6.5.2).
	var ppr int
	for _, c := range census.Sequence() {
		if c == core.PPR {
			ppr++
		}
	}
	if ppr < 5 {
		t.Fatalf("census PPR iterations = %d, want majority", ppr)
	}
	ie := NewIE(tiny(), 1)
	if len(ie.Sequence()) != 6 {
		t.Fatal("nlp sequence must have 6 iterations")
	}
	for _, c := range ie.Sequence() {
		if c != core.DPR {
			t.Fatal("nlp sequence must be all DPR")
		}
	}
	if len(NewGenomics(tiny(), 1).Sequence()) != 10 || len(NewMNIST(tiny(), 1).Sequence()) != 10 {
		t.Fatal("genomics/mnist sequences must have 10 iterations")
	}
}

func TestMutationsAreDeterministic(t *testing.T) {
	a, b := NewCensus(tiny(), 1), NewCensus(tiny(), 1)
	for it, comp := range a.Sequence() {
		if it == 0 {
			continue
		}
		a.Mutate(it, comp)
		b.Mutate(it, comp)
	}
	pa, err := a.Build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	pa.DAG.ComputeSignatures()
	pb.DAG.ComputeSignatures()
	if pa.DAG.Len() != pb.DAG.Len() {
		t.Fatal("mutation divergence")
	}
	for _, n := range pa.DAG.Nodes() {
		m := pb.DAG.Node(n.Name)
		if m == nil || m.ChainSignature() != n.ChainSignature() {
			t.Fatalf("node %q diverged", n.Name)
		}
	}
}
