package workloads

import (
	"context"
	"testing"

	"helix"
	"helix/internal/collection"
	"helix/internal/core"
	"helix/internal/ml"
)

// TestGenomicsFullScheduleTheorem1 drives the complete genomics schedule
// under reuse and from scratch, asserting identical cluster summaries at
// every iteration (Theorem 1 on the unsupervised multi-learner workflow).
func TestGenomicsFullScheduleTheorem1(t *testing.T) {
	if testing.Short() {
		t.Skip("full schedule is slow")
	}
	ctx := context.Background()
	reuse, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.PolicyNever), helix.WithReuse(false))
	if err != nil {
		t.Fatal(err)
	}
	a := NewGenomics(tiny(), 1)
	b := NewGenomics(tiny(), 1)
	seq := a.Sequence()
	for it := 0; it < len(seq); it++ {
		if it > 0 {
			a.Mutate(it, seq[it])
			b.Mutate(it, seq[it])
		}
		ra, err := reuse.Run(ctx, a.Build())
		if err != nil {
			t.Fatalf("reuse iteration %d: %v", it, err)
		}
		rb, err := scratch.Run(ctx, b.Build())
		if err != nil {
			t.Fatalf("scratch iteration %d: %v", it, err)
		}
		sa := ra.Values["clusterSummary"].(ml.ClusterSummary)
		sb := rb.Values["clusterSummary"].(ml.ClusterSummary)
		if sa.K != sb.K || sa.Inertia != sb.Inertia {
			t.Fatalf("iteration %d: summaries diverge (K %d/%d, inertia %v/%v)",
				it, sa.K, sb.K, sa.Inertia, sb.Inertia)
		}
	}
}

// TestMNISTFullScheduleRuns drives the complete MNIST schedule and
// asserts the per-iteration invariants of Figure 6d: nondeterministic DPR
// output is never materialized, and PPR iterations never recompute it.
func TestMNISTFullScheduleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full schedule is slow")
	}
	ctx := context.Background()
	sess, err := helix.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMNIST(tiny(), 1)
	seq := m.Sequence()
	for it := 0; it < len(seq); it++ {
		if it > 0 {
			m.Mutate(it, seq[it])
		}
		res, err := sess.Run(ctx, m.Build())
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		if res.Nodes["rffFeatures"].Bytes != 0 {
			t.Fatalf("iteration %d: nondeterministic output materialized", it)
		}
		if seq[it] == core.PPR && res.Nodes["rffFeatures"].State == core.StateCompute {
			t.Fatalf("iteration %d (PPR): RFF recomputed", it)
		}
	}
}

// TestCensusClusterWorkersProduceSameResult checks that the simulated
// cluster size changes only performance, never results.
func TestCensusClusterWorkersProduceSameResult(t *testing.T) {
	ctx := context.Background()
	var accs []float64
	for _, workers := range []int{1, 4} {
		sess, err := helix.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := NewCensus(tiny(), 1)
		c.Env = &collection.Env{Workers: workers}
		res, err := sess.Run(ctx, c.Build())
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, res.Values["checked"].(EvalReport).Metrics["accuracy"])
	}
	if accs[0] != accs[1] {
		t.Fatalf("worker count changed results: %v", accs)
	}
}
