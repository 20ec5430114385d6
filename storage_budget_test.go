package helix

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"helix/internal/clock"
)

// The storage budget caps what the session's tenant holds in the store:
// the store admits each optional write against it with the bytes already
// stored, outputs included, so no sequence of runs — edits of an output,
// run-scoped policy overrides, failed writes — lets the optional bytes
// grow past it. Every operator here sleeps on the run's model clock, so
// each one is worth materializing by a wide margin at no host cost.

// budgetOp returns an operator that takes 50 ms of the run's clock and
// produces size bytes.
func budgetOp(size int) Func {
	return func(ctx context.Context, _ []Value) (Value, error) {
		clock.From(ctx).Sleep(50 * time.Millisecond)
		return make([]byte, size), nil
	}
}

// runOnModel runs wf on a fresh model clock and fails the test on error.
func runOnModel(t *testing.T, sess *Session, wf *Workflow, opts ...Option) *Result {
	t.Helper()
	res, err := sess.Run(clock.With(context.Background(), &clock.Model{}), wf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// storedBesides sums the session store's entries, apart from those of
// the named operator.
func storedBesides(sess *Session, name string) int64 {
	var total int64
	for _, key := range sess.store.Keys() {
		if ent, _ := sess.store.Entry(key); ent.Name != name {
			total += ent.Size
		}
	}
	return total
}

// TestStorageBudgetHoldsAcrossOutputEdits: editing the output op purges
// the previous output, which no budget ever admitted; the purge must not
// leave room that a later optional write can spend. Six runs edit a
// 29 KB output under a 64 KiB budget, then a seventh puts a 160 KB
// intermediate in front of it, which must be refused: only 35 KiB of the
// budget is free.
func TestStorageBudgetHoldsAcrossOutputEdits(t *testing.T) {
	const budget = 64 << 10
	sess, err := Open(t.TempDir(), WithStorageBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 1; i <= 7; i++ {
		wf := New("output-edits")
		feed := wf.Source("src", "v1", budgetOp(16))
		if i == 7 {
			feed = wf.Extractor("mid", "v1", budgetOp(160_000), feed)
		}
		wf.Reducer("out", fmt.Sprint("v", i), budgetOp(29_000), feed).IsOutput()
		runOnModel(t, sess, wf)
		if got := storedBesides(sess, "out"); got > budget {
			t.Fatalf("run %d: the store holds %d B besides the output, against a %d B budget", i, got, budget)
		}
	}
}

// TestStorageBudgetHoldsUnderRunOverride: a run-scoped override builds a
// policy of its own, but the bytes the baseline stored still count
// against the budget it runs under. The baseline stores a 12 KB
// intermediate; the override run's new 30 KB one does not fit the 40 KB
// budget beside it.
func TestStorageBudgetHoldsUnderRunOverride(t *testing.T) {
	const budget = 40_000
	sess, err := Open(t.TempDir(), WithStorageBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	build := func(withB bool) *Workflow {
		wf := New("override")
		src := wf.Source("src", "v1", budgetOp(16))
		wf.Reducer("outA", "v1", budgetOp(8), wf.Extractor("A", "v1", budgetOp(12_000), src)).IsOutput()
		if withB {
			wf.Reducer("outB", "v1", budgetOp(8), wf.Extractor("B", "v1", budgetOp(30_000), src)).IsOutput()
		}
		return wf
	}
	runOnModel(t, sess, build(false))
	if !sess.store.Has(mustPlan(t, sess, build(false)).ByName("A").Node.ChainSignature()) {
		t.Fatal("the baseline run did not store A; the test needs it stored")
	}
	runOnModel(t, sess, build(true), WithOMPThreshold(1.5))
	if got := sess.StorageBytes(); got > budget {
		t.Fatalf("after the override run the store holds %d B against a %d B budget", got, budget)
	}
}

// TestStorageBudgetFailedWriteLeavesNoReservation: a write that fails
// holds no budget afterwards. A directory planted at the artifact's temp
// path makes the 8 KB write fail; once it is gone, an edited version of
// the same size must be admitted under a 10 KB budget.
func TestStorageBudgetFailedWriteLeavesNoReservation(t *testing.T) {
	const budget = 10_000
	dir := t.TempDir()
	sess, err := Open(dir, WithStorageBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	build := func(version string) *Workflow {
		wf := New("failed-write")
		src := wf.Source("src", "v1", budgetOp(16))
		wf.Reducer("out", "v1", budgetOp(8), wf.Extractor("big", version, budgetOp(8_000), src)).IsOutput()
		return wf
	}
	first := build("v1")
	planted := filepath.Join(dir, mustPlan(t, sess, first).ByName("big").Node.ChainSignature()+".gob.tmp")
	if err := os.MkdirAll(filepath.Join(planted, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if res := runOnModel(t, sess, first); res.Nodes["big"].MatErr == nil {
		t.Fatal("the write of big did not fail; the test needs it to")
	}
	if err := os.RemoveAll(planted); err != nil {
		t.Fatal(err)
	}
	second := build("v2")
	runOnModel(t, sess, second)
	if key := mustPlan(t, sess, second).ByName("big").Node.ChainSignature(); !sess.store.Has(key) {
		t.Fatalf("an 8 KB write under a %d B budget holding %d B was refused: the failed write's reservation is still held", budget, sess.StorageBytes())
	}
}

// mustPlan plans wf under the session's baseline configuration.
func mustPlan(t *testing.T, s *Session, wf *Workflow) *Plan {
	t.Helper()
	p, err := s.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
