package helix

import (
	"fmt"
	"sync"

	"helix/internal/plan"
	"helix/internal/store"
)

// SharedStore is a content-addressed artifact store plus a process-wide
// plan cache that any number of Sessions attach to concurrently
// (WithSharedStore). It is the cross-session multiplier on the paper's
// reuse win: artifacts are keyed by chain signature — a sha256 content
// hash over the operator chain — so two sessions (or tenants) running the
// same featurization prefix publish it once and load it from each other,
// and a workflow one session already planned is a full plan-cache hit
// (zero max-flow solves) for every later session under the same
// configuration.
//
// Publishes are atomic (temp file + rename) and write-once, and no
// session ever purges the store: shared planning marks no operator
// original, so no run deprecates a published artifact. Per-tenant byte
// accounting (WithTenant, TenantBytes) is what a session's storage budget
// caps, so one tenant's writes cannot drain another's.
//
// Lifecycle: OpenSharedStore once, pass the handle to each Open via
// WithSharedStore, Close the sessions, then Close the handle. Closing the
// handle stops the background writer pool; sessions still attached keep
// working with synchronous writes, and Open with it fails (ErrBadConfig).
type SharedStore struct {
	store *store.Store
	cache *plan.Cache
	board plan.StatsBoard

	// mu guards the fields below: pinned, the store-level settings the
	// first attaching session chose (nil until then); sessions, the count
	// of attached sessions; and closed.
	//lint:nolockio
	mu       sync.Mutex
	pinned   *storeConfig
	sessions int
	closed   bool
}

// OpenSharedStore opens (creating if needed) a shared artifact store
// rooted at dir. Store-level settings — disk throughput, writer pool —
// are adopted from the first session that attaches; a later session
// requesting different ones fails with ErrSharedConfig.
func OpenSharedStore(dir string) (*SharedStore, error) {
	st, err := store.OpenShared(dir)
	if err != nil {
		return nil, err
	}
	return &SharedStore{store: st, cache: plan.NewProcessCache()}, nil
}

// Dir returns the store's root directory.
func (h *SharedStore) Dir() string { return h.store.Dir() }

// Artifacts reports the number of artifacts currently published.
func (h *SharedStore) Artifacts() int { return h.store.Len() }

// StorageBytes reports total on-disk bytes across all tenants.
func (h *SharedStore) StorageBytes() int64 { return h.store.UsedBytes() }

// TenantBytes reports the on-disk bytes published under one tenant label
// (WithTenant). Accounting, not access control: artifacts are shared
// across tenants by content address.
func (h *SharedStore) TenantBytes(tenant string) int64 { return h.store.TenantBytes(tenant) }

// Sessions reports the number of currently attached sessions.
func (h *SharedStore) Sessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sessions
}

// PlanCacheStats reports the shared plan cache's consultation counters
// across every attached session.
func (h *SharedStore) PlanCacheStats() plan.CacheStats { return h.cache.Stats() }

// Close flushes pending writes, persists the manifest, and stops the
// writer pool. Idempotent. Sessions still attached keep working (their
// writes degrade to synchronous); a later Open with it fails
// (ErrBadConfig).
func (h *SharedStore) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	return h.store.Close()
}

// attach validates a session's store-level settings against the shared
// store's (first session wins, later conflicts error) and counts the
// session as attached.
func (h *SharedStore) attach(sc storeConfig) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return tagged(ErrBadConfig, fmt.Errorf("store: attach: shared store is closed"))
	}
	if h.pinned == nil {
		h.pinned = &sc
		sc.applyTo(h.store)
	}
	if *h.pinned != sc {
		return tagged(ErrSharedConfig, fmt.Errorf(
			"helix: shared store %s is configured with %+v, session requested %+v", h.Dir(), *h.pinned, sc))
	}
	h.sessions++
	return nil
}

// detach flushes the session's pending writes and counts it as gone. The
// store stays open for the other sessions.
func (h *SharedStore) detach() error {
	err := h.store.Flush()
	h.mu.Lock()
	h.sessions--
	h.mu.Unlock()
	return err
}

// WithSharedStore attaches the session to a shared content-addressed
// store instead of opening a private one: Open's dir argument is ignored,
// artifacts are published once per chain signature and loaded by any
// attached session, and planning uses the process-wide shared plan cache
// (a workflow one session planned is a zero-solve cache hit for the
// next). No run of such a session purges the store. Session-scoped. A
// closed h fails Open with ErrBadConfig. Combine with WithTenant to label
// published bytes for per-tenant accounting.
func WithSharedStore(h *SharedStore) Option {
	if h == nil {
		return badOption("WithSharedStore", fmt.Errorf("helix: WithSharedStore(nil)"))
	}
	return Option{name: "WithSharedStore", sessionOnly: true,
		apply: func(c *config) {
			c.shared = h
			c.exec.Plan.Shared = true
		}}
}

// WithTenant labels the session's published artifacts with a tenant
// namespace for shared-store byte accounting (SharedStore.TenantBytes).
// The label does not partition reuse — equivalent artifacts are shared
// across tenants — and does not affect planning, so sessions of different
// tenants still share each other's plans. Session-scoped, and only with
// WithSharedStore: a private store keeps no per-tenant accounting, so
// Open rejects a non-empty tenant without one (ErrBadConfig).
func WithTenant(name string) Option {
	return Option{name: "WithTenant", sessionOnly: true,
		apply: func(c *config) { c.exec.Tenant = name }}
}
