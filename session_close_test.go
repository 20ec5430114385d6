package helix

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestSessionCloseFlushesForRestart: materializations accepted by a
// session's last run — written by the background writer pool — must
// survive Close and be reusable by a fresh session on the same
// directory. This is the Session.Close half of the Flush() contract.
func TestSessionCloseFlushesForRestart(t *testing.T) {
	dir := t.TempDir()
	sess, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if _, err := sess.Run(context.Background(), buildWorkflow(&calls, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("first run computed nothing")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}

	resumed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	var calls2 atomic.Int64
	res, err := resumed.Run(context.Background(), buildWorkflow(&calls2, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("restarted session recomputed %d operators: Close lost materializations", calls2.Load())
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("restarted output = %v, want 300", res.Values["checked"])
	}
}

// TestSessionSyncMaterializationOption: the escape hatch must put the
// materialization bill back on the iteration's critical path while
// producing identical results and reuse behavior.
func TestSessionSyncMaterializationOption(t *testing.T) {
	sess, err := Open(t.TempDir(), WithSyncMaterialization(true))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var calls atomic.Int64
	res, err := sess.Run(context.Background(), buildWorkflow(&calls, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("sync-mode output = %v, want 300", res.Values["checked"])
	}
	if res.FlushWait != 0 {
		t.Fatalf("sync mode reported FlushWait %v", res.FlushWait)
	}
	var calls2 atomic.Int64
	if _, err := sess.Run(context.Background(), buildWorkflow(&calls2, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("sync-mode rerun recomputed %d operators", calls2.Load())
	}
}
