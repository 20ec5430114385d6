package helix

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helix/internal/opt"
	"helix/internal/plan"
	"helix/internal/store"
)

// TestSharedWarmSessionZeroRecompute is the directed cross-session reuse
// case: session A runs a workflow (computing and publishing everything)
// and settles its steady-state plan; session B — a brand-new session on
// the same shared store — must then answer its very first Run entirely
// from shared state: a full plan-cache hit, zero max-flow solves, zero
// operator executions, and no growth of the store.
func TestSharedWarmSessionZeroRecompute(t *testing.T) {
	h, err := OpenSharedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()

	a, err := Open("", WithSharedStore(h), WithTenant("alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var cA atomic.Int64
	resA, err := a.Run(ctx, buildWorkflow(&cA, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if cA.Load() != 4 {
		t.Fatalf("cold session computed %d operators, want 4", cA.Load())
	}
	// Settle: the second run plans against the published store and known
	// statistics; its fingerprint is the one every later session matches.
	if _, err := a.Run(ctx, buildWorkflow(&cA, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	artifacts := h.Artifacts()
	if artifacts == 0 {
		t.Fatal("cold session published no artifacts")
	}

	b, err := Open("", WithSharedStore(h), WithTenant("bob"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var cB atomic.Int64
	before := opt.SolveCount()
	resB, err := b.Run(ctx, buildWorkflow(&cB, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if d := opt.SolveCount() - before; d != 0 {
		t.Fatalf("warm session's first plan performed %d max-flow solves, want 0", d)
	}
	if resB.Plan.Cache != plan.CacheHit {
		t.Fatalf("warm session's first plan outcome %v, want a shared-cache full hit", resB.Plan.Cache)
	}
	if cB.Load() != 0 {
		t.Fatalf("warm session recomputed %d operators, want 0", cB.Load())
	}
	if resB.Values["checked"] != resA.Values["checked"] {
		t.Fatalf("warm output %v != cold output %v", resB.Values["checked"], resA.Values["checked"])
	}
	if got := h.Artifacts(); got != artifacts {
		t.Fatalf("warm session grew the store: %d artifacts, want %d (write-once dedup)", got, artifacts)
	}
	if h.TenantBytes("bob") != 0 {
		t.Fatalf("warm session published %d bytes under its tenant, want 0", h.TenantBytes("bob"))
	}
	if h.TenantBytes("alice") != h.StorageBytes() {
		t.Fatalf("tenant accounting: alice holds %d B of %d B total", h.TenantBytes("alice"), h.StorageBytes())
	}
}

// TestSharedPurgeRespectsLivePins: purging the shared store never
// invalidates an artifact a live session's executed plan depends on.
// Pins are per-attachment — released only when that session detaches —
// so an aggressive purge under one session leaves every other live
// session's reuse intact, and only a store with no remaining pins can
// actually be emptied.
func TestSharedPurgeRespectsLivePins(t *testing.T) {
	h, err := OpenSharedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()

	a, err := Open("", WithSharedStore(h), WithTenant("a"))
	if err != nil {
		t.Fatal(err)
	}
	var cA atomic.Int64
	if _, err := a.Run(ctx, buildWorkflow(&cA, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	b, err := Open("", WithSharedStore(h), WithTenant("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var cB atomic.Int64
	resB, err := b.Run(ctx, buildWorkflow(&cB, "LR reg=0.1"))
	if err != nil {
		t.Fatal(err)
	}

	st := h.handle.Store()
	n := st.Len()
	if n == 0 {
		t.Fatal("no artifacts published")
	}
	for _, np := range resB.Plan.Nodes {
		sig := np.Node.ChainSignature()
		if st.Has(sig) && st.Refs(sig) < 1 {
			t.Fatalf("published artifact %s of b's executed plan has %d refs, want ≥1", np.Node.Name, st.Refs(sig))
		}
	}

	// A keep-nothing purge — the harshest possible eviction — must leave
	// every pinned entry alone.
	if _, err := st.Purge(func(string, store.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != n {
		t.Fatalf("purge removed pinned artifacts: %d left of %d", got, n)
	}

	// One session detaching doesn't strand the other: b's pins still hold.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Purge(func(string, store.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != n {
		t.Fatalf("purge under one live session removed another's artifacts: %d left of %d", got, n)
	}
	before := cB.Load()
	if _, err := b.Run(ctx, buildWorkflow(&cB, "LR reg=0.1")); err != nil {
		t.Fatal(err)
	}
	if got := cB.Load(); got != before {
		t.Fatalf("live session recomputed %d operators after a foreign purge, want 0", got-before)
	}

	// With the last session detached nothing is pinned and the purge is
	// free to empty the store.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Purge(func(string, store.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 0 {
		t.Fatalf("purge with no live sessions left %d artifacts", got)
	}
}

// TestSharedConfigConflict: store-level settings belong to the shared
// store, not to any one session — the first attaching session's are
// adopted, an identical request attaches, and a differing disk
// throughput fails with ErrSharedConfig (and attaches nothing).
func TestSharedConfigConflict(t *testing.T) {
	h, err := OpenSharedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	first, err := Open("", WithSharedStore(h), WithDiskThroughput(170e6))
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if first.store.DiskBytesPerSec != 170e6 {
		t.Fatalf("first session's settings not adopted: disk %g", first.store.DiskBytesPerSec)
	}
	same, err := Open("", WithSharedStore(h), WithDiskThroughput(170e6), WithPolicy(PolicyAlways))
	if err != nil {
		t.Fatalf("identical store-level settings (run-level ones differ) refused: %v", err)
	}
	defer same.Close()
	for name, conflicting := range map[string][]Option{
		"disk throughput": {WithDiskThroughput(1e6)},
		"defaults":        nil,
	} {
		if _, err := Open("", append(conflicting, WithSharedStore(h))...); !errors.Is(err, ErrSharedConfig) {
			t.Errorf("%s: err = %v, want ErrSharedConfig", name, err)
		}
	}
	if got := h.Sessions(); got != 2 {
		t.Fatalf("%d sessions attached, want 2: a refused session must not attach", got)
	}
	if first.store.DiskBytesPerSec != 170e6 {
		t.Fatalf("a refused session rewrote the store's settings: disk %g", first.store.DiskBytesPerSec)
	}
}

// stressWorkflow builds the stress workload: a prefix (source + scanner)
// shared by every session and a learner/reducer suffix unique to one
// (worker, iteration) pair, so concurrent sessions race to publish the
// same prefix signatures while growing disjoint suffixes.
func stressWorkflow(worker, iter int) (*Workflow, float64) {
	wf := New(fmt.Sprintf("stress-w%d", worker))
	src := wf.Source("data", "v1", func(ctx context.Context, in []Value) (Value, error) {
		time.Sleep(time.Millisecond)
		return []string{"a", "b", "c", "d"}, nil
	})
	rows := wf.Scanner("rows", "csv", func(ctx context.Context, in []Value) (Value, error) {
		time.Sleep(time.Millisecond)
		return len(in[0].([]string)), nil
	}, src)
	k := 100*worker + iter + 1
	model := wf.Learner("model", fmt.Sprintf("w%d-i%d", worker, iter), func(ctx context.Context, in []Value) (Value, error) {
		time.Sleep(2 * time.Millisecond)
		return in[0].(int) * k, nil
	}, rows)
	wf.Reducer("out", "acc", func(ctx context.Context, in []Value) (Value, error) {
		return float64(in[0].(int)), nil
	}, model).IsOutput()
	return wf, float64(4 * k)
}

// TestSharedStoreConcurrentStress hammers one shared store with five
// concurrent sessions for several iterations each while a purger
// repeatedly attempts keep-nothing evictions, all under the race
// detector in CI. Invariants checked: every session's outputs stay
// correct; refcount soundness (every signature of a session's executed
// plan holds ≥1 ref until that session moves on); manifest consistency
// after the storm (unique keys, every entry's payload on disk at its
// recorded size, in-memory table matching the manifest); tenant
// accounting summing to total usage; and full reclamation once the last
// session detaches.
func TestSharedStoreConcurrentStress(t *testing.T) {
	const workers = 5
	const iters = 4
	h, err := OpenSharedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	st := h.handle.Store()
	ctx := context.Background()

	sessions := make([]*Session, workers)
	for w := 0; w < workers; w++ {
		s, err := Open("", WithSharedStore(h),
			WithTenant(fmt.Sprintf("w%d", w)),
			WithPolicy(PolicyAlways))
		if err != nil {
			t.Fatal(err)
		}
		sessions[w] = s
	}

	// Phase 1: every session runs its first iteration concurrently — the
	// shared prefix races through single-flight publish — and pins its
	// plan. From here on each session only ever loads signatures its own
	// pins protect, so phase 2's purger can never strand a live load.
	var wg sync.WaitGroup
	runIter := func(w, it int) {
		s := sessions[w]
		wf, want := stressWorkflow(w, it)
		res, err := s.Run(ctx, wf)
		if err != nil {
			t.Errorf("worker %d iteration %d: %v", w, it, err)
			return
		}
		if got := res.Values["out"]; got != want {
			t.Errorf("worker %d iteration %d: out = %v, want %v", w, it, got, want)
		}
		for _, np := range res.Plan.Nodes {
			sig := np.Node.ChainSignature()
			if st.Has(sig) && st.Refs(sig) < 1 {
				t.Errorf("worker %d iteration %d: executed-plan artifact %s has no refs", w, it, np.Node.Name)
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); runIter(w, 0) }(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: remaining iterations under concurrent purge pressure.
	stop := make(chan struct{})
	var purges sync.WaitGroup
	purges.Add(1)
	go func() {
		defer purges.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := st.Purge(func(string, store.Entry) bool { return false }); err != nil {
					t.Errorf("purge: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 1; it < iters; it++ {
				runIter(w, it)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	purges.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Manifest consistency: flush, then cross-check disk against memory.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := store.ReadManifest(h.Dir())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if seen[e.Key] {
			t.Fatalf("manifest holds duplicate key %s", e.Key)
		}
		seen[e.Key] = true
		fi, err := os.Stat(filepath.Join(h.Dir(), e.Key+".gob"))
		if err != nil {
			t.Fatalf("manifest entry %s (%s) has no payload on disk: %v", e.Key, e.Name, err)
		}
		if fi.Size() != e.Size {
			t.Fatalf("manifest entry %s: %d B on disk, %d B recorded", e.Key, fi.Size(), e.Size)
		}
		if !st.Has(e.Key) {
			t.Fatalf("manifest entry %s missing from the in-memory table", e.Key)
		}
	}
	if st.Len() != len(entries) {
		t.Fatalf("in-memory table holds %d entries, manifest %d", st.Len(), len(entries))
	}

	// Tenant accounting: every byte is attributed to exactly one tenant.
	var tenantTotal int64
	for w := 0; w < workers; w++ {
		tenantTotal += h.TenantBytes(fmt.Sprintf("w%d", w))
	}
	if tenantTotal != h.StorageBytes() {
		t.Fatalf("tenant bytes sum to %d, store holds %d", tenantTotal, h.StorageBytes())
	}

	// Reclamation: once every session detaches, nothing is pinned and a
	// keep-nothing purge empties the store.
	for _, s := range sessions {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range st.Keys() {
		if st.Refs(key) != 0 || st.Pinned(key) {
			t.Fatalf("key %s still pinned after every session detached", key)
		}
	}
	if _, err := st.Purge(func(string, store.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 0 {
		t.Fatalf("purge after all sessions detached left %d artifacts", got)
	}
}
