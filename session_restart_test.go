package helix

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"helix/internal/opt"
)

// TestSessionRestartResumesReuse: reopening a session on the same
// directory must resume change tracking, so an identical workflow reuses
// results materialized before the restart.
func TestSessionRestartResumesReuse(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	sess1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c1 atomic.Int64
	if _, err := sess1.Run(ctx, buildWorkflow(&c1, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if sess1.Iteration() != 1 {
		t.Fatal("iteration not advanced")
	}

	// "Restart": a fresh Session on the same directory.
	sess2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Iteration() != 1 {
		t.Fatalf("restarted session iteration = %d, want 1", sess2.Iteration())
	}
	var c2 atomic.Int64
	res, err := sess2.Run(ctx, buildWorkflow(&c2, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Load() != 0 {
		t.Fatalf("restarted identical run executed %d operators, want 0", c2.Load())
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("restarted output = %v", res.Values["checked"])
	}
}

// TestSessionRestartDetectsChange: after a restart, a changed operator is
// still detected as original and recomputed with correct results.
func TestSessionRestartDetectsChange(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sess1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c1 atomic.Int64
	if _, err := sess1.Run(ctx, buildWorkflow(&c1, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}

	sess2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c2 atomic.Int64
	res, err := sess2.Run(ctx, buildWorkflow(&c2, "LR reg=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 600.0 {
		t.Fatalf("post-restart changed output = %v, want 600", res.Values["checked"])
	}
	if res.Nodes["model"].State != StateCompute {
		t.Fatal("changed learner not recomputed after restart")
	}
	if res.Nodes["rows"].State == StateCompute {
		t.Fatal("unchanged DPR recomputed after restart")
	}
}

// TestSessionCorruptStateDegrades: a corrupt session file falls back to a
// fresh session (everything recomputed) without error.
func TestSessionCorruptStateDegrades(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sess1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c1 atomic.Int64
	if _, err := sess1.Run(ctx, buildWorkflow(&c1, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, sessionStateFile), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	sess2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Iteration() != 0 {
		t.Fatal("corrupt state should reset the session")
	}
	var c2 atomic.Int64
	res, err := sess2.Run(ctx, buildWorkflow(&c2, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("output after corrupt state = %v", res.Values["checked"])
	}
	if c2.Load() != 4 {
		t.Fatalf("fresh session should recompute all 4 operators, got %d", c2.Load())
	}
}

// TestSessionReopenChargesStoredBytes: a session reopened on a store that
// already holds materializations starts its budget net of them, so a
// restart cannot let the store grow past its budget (the seed-15
// eviction-pressure failure: the store held two budgets' worth after a
// restart at iteration 1).
func TestSessionReopenChargesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	const budget = 1 << 20
	sess1, err := Open(dir, WithStorageBudget(budget), WithPolicy(PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	var c atomic.Int64
	if _, err := sess1.Run(context.Background(), buildWorkflow(&c, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if err := sess1.Close(); err != nil {
		t.Fatal(err)
	}
	sess2, err := Open(dir, WithStorageBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	used := sess2.StorageBytes()
	if used == 0 {
		t.Fatal("the first session stored nothing")
	}
	omp, ok := sess2.policies[sess2.base.policy].(*opt.StreamingOMP)
	if !ok {
		t.Fatalf("policy %T, want *opt.StreamingOMP", sess2.policies[sess2.base.policy])
	}
	if got := omp.Remaining(); got != budget-used {
		t.Fatalf("reopened budget remaining %d, want %d − %d stored = %d", got, budget, used, budget-used)
	}
}
