package helix

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
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

// HostBiller is a test Biller that bills nothing on the host's clock:
// operators that sleep on the host are timed as under a Session's
// default clock, while the engine runs the iteration serially and writes
// every materialization inline, as it does on internal/sim's model.
// Exported for the external test package.
type HostBiller struct{ clock.Real }

// Bill implements exec.Biller: no charge beyond the host's own time.
func (HostBiller) Bill(*core.Node, []any, any) time.Duration { return 0 }

// TestSessionOnBillerWritesInline: a Session run on a model clock puts
// the materialization bill back on the iteration's critical path — the
// retiring worker writes, so there is no flush barrier to wait at and
// each retirement already reports its result on disk — while producing
// identical results and reuse behavior.
func TestSessionOnBillerWritesInline(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := clock.With(context.Background(), HostBiller{})
	materialized := map[string]bool{}
	obs := WithObserver(func(ev RunEvent) {
		if ne, ok := ev.(NodeEvent); ok && ne.Phase == NodeRetired {
			materialized[ne.Name] = ne.Materialized
		}
	})
	var calls atomic.Int64
	res, err := sess.Run(ctx, buildWorkflow(&calls, "LR reg=0.1"), obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["checked"] != 300.0 {
		t.Fatalf("inline output = %v, want 300", res.Values["checked"])
	}
	if res.FlushWait != 0 {
		t.Fatalf("inline run reported FlushWait %v", res.FlushWait)
	}
	if !materialized["checked"] {
		t.Fatalf("NodeRetired(checked) reported materialized=false for an inline write of a mandatory output")
	}
	for name, rep := range res.Nodes {
		if rep.Bytes > 0 && !materialized[name] {
			t.Errorf("NodeRetired(%s) reported materialized=false; the run settled on %d bytes", name, rep.Bytes)
		}
	}
	var calls2 atomic.Int64
	if _, err := sess.Run(ctx, buildWorkflow(&calls2, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("inline rerun recomputed %d operators", calls2.Load())
	}
}
