package helix

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"helix/internal/store"
)

// TestWorkerClassPoolSizes pins the routing of every worker class to its
// pool: WorkerCompute → the engine's compute parallelism, WorkerIO → the
// engine's load pool, WorkerMat → the store's write-behind writer pool.
// The effective mat pool size is what the store will actually spawn.
func TestWorkerClassPoolSizes(t *testing.T) {
	sess, err := Open(t.TempDir(),
		WithWorkerClass(WorkerCompute, 3),
		WithWorkerClass(WorkerIO, 5),
		WithWorkerClass(WorkerMat, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.engine.Opts.Parallelism; got != 3 {
		t.Errorf("compute pool = %d, want 3", got)
	}
	if got := sess.engine.Opts.IOWorkers; got != 5 {
		t.Errorf("io pool = %d, want 5", got)
	}
	if got := sess.store.Writers; got != 2 {
		t.Errorf("mat writer pool = %d, want 2", got)
	}
	if got := sess.store.WriterPoolSize(); got != 2 {
		t.Errorf("effective mat writer pool = %d, want 2", got)
	}

	// Unset falls back to the store default.
	def, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if got := def.store.WriterPoolSize(); got != store.DefaultWriters {
		t.Errorf("default mat writer pool = %d, want %d", got, store.DefaultWriters)
	}
}

// TestWorkerMatRejectedAtRunScope: the materialization writer pool
// belongs to the store, so the WorkerMat class is session-scoped even
// though WithWorkerClass itself is a run-scoped option for the other
// classes.
func TestWorkerMatRejectedAtRunScope(t *testing.T) {
	sess, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var c atomic.Int64
	wf := buildWorkflow(&c, "LR reg=0.1")
	if _, err := sess.Run(context.Background(), wf, WithWorkerClass(WorkerMat, 2)); !errors.Is(err, ErrSessionOption) {
		t.Fatalf("Run with WorkerMat: err = %v, want ErrSessionOption", err)
	}
	if _, err := sess.Plan(wf, WithWorkerClass(WorkerMat, 2)); !errors.Is(err, ErrSessionOption) {
		t.Fatalf("Plan with WorkerMat: err = %v, want ErrSessionOption", err)
	}
	if c.Load() != 0 {
		t.Fatal("rejected run executed operators")
	}
	// The other classes stay run-scoped.
	if _, err := sess.Run(context.Background(), wf,
		WithWorkerClass(WorkerCompute, 2), WithWorkerClass(WorkerIO, 2)); err != nil {
		t.Fatalf("run-scoped compute/io classes: %v", err)
	}
}
