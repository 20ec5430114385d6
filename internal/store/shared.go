package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Shared is a content-addressed artifact store that any number of
// sessions attach to concurrently. It wraps exactly one *Store, so every
// concurrency property of the single-session store — the 16-way sharded
// entry table, per-key file locks, single-flighted Gets, and the
// PutAsync/Flush writer pool — holds across sessions for free.
//
// Shared mode changes the store's write semantics from "latest wins" to
// content-addressed write-once: a chain signature is a sha256 over the
// operator chain that produced the value, so two sessions computing the
// same signature computed equivalent values (Definition 3) and the first
// publish wins. Publishes are atomic (temp file + rename), so a reader in
// another session can never observe a torn artifact.
//
// Lifecycle: OpenShared opens the handle; each session Attaches and later
// Detaches; the owner Closes the handle once after all sessions detach.
// Entries are protected from Purge while any live attachment pins them —
// an attachment pins the chain signatures of its last executed plan
// (Attachment.Repin), so one session's purge can never invalidate an
// artifact another live session depends on.
type Shared struct {
	store *Store

	//lint:nolockio
	mu     sync.Mutex
	closed bool
	atts   map[int]*Attachment
}

// sharedState lives on the Store so Purge and manifest snapshots can
// consult pins without reaching back through the Shared handle.
type sharedState struct {
	//lint:nolockio
	mu   sync.Mutex
	next int
	// pins maps a live attachment id to the chain signatures its session's
	// last executed plan depends on. In-memory pins are authoritative: a
	// freshly opened shared store has no live sessions, so nothing is
	// pinned and the persisted Refs counts are diagnostics only.
	pins map[int]map[string]bool
}

// OpenShared opens (creating if needed) a shared content-addressed store
// rooted at dir. Unlike Open it leaves temp files alone: another process
// may be mid-publish into the same directory. Store-level configuration
// (codec, disk simulation) is set once on the
// underlying Store() before the first use; attaching sessions inherit it.
func OpenShared(dir string) (*Shared, error) {
	s, err := openStore(dir, false)
	if err != nil {
		return nil, err
	}
	s.shared = &sharedState{pins: make(map[int]map[string]bool)}
	return &Shared{store: s, atts: make(map[int]*Attachment)}, nil
}

// Store returns the underlying store all attachments share.
func (sh *Shared) Store() *Store { return sh.store }

// Attach registers a new session under the given tenant namespace and
// returns its attachment handle. The tenant labels the entries the
// session publishes (for per-tenant byte accounting); it does not
// partition the namespace — artifacts are shared across tenants by
// content address.
func (sh *Shared) Attach(tenant string) (*Attachment, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, fmt.Errorf("store: attach: shared store is closed")
	}
	st := sh.store.shared
	st.mu.Lock()
	id := st.next
	st.next++
	st.pins[id] = make(map[string]bool)
	st.mu.Unlock()
	a := &Attachment{shared: sh, id: id, tenant: tenant}
	sh.atts[id] = a
	return a, nil
}

// Attachments reports the number of live (attached, not yet detached)
// sessions.
func (sh *Shared) Attachments() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.atts)
}

// TenantBytes reports the total on-disk bytes of artifacts published
// under the given tenant label.
func (sh *Shared) TenantBytes(tenant string) int64 { return sh.store.TenantBytes(tenant) }

// Close flushes pending writes, persists the manifest, and stops the
// writer pool. Live attachments keep working (their writes degrade to
// synchronous), but new Attach calls fail. Close is idempotent.
func (sh *Shared) Close() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil
	}
	sh.closed = true
	sh.mu.Unlock()
	return sh.store.Close()
}

// Attachment is one session's handle on a Shared store. It carries the
// session's tenant label and its pin set — the chain signatures of the
// session's last executed plan, which Purge must not evict while the
// attachment is live.
type Attachment struct {
	shared   *Shared
	id       int
	tenant   string
	detached atomic.Bool
}

// Store returns the shared underlying store.
func (a *Attachment) Store() *Store { return a.shared.store }

// Repin replaces the attachment's pin set with the given chain
// signatures. The engine calls this after each successful run with the
// executed plan's full signature set, so everything the session's current
// results were loaded from (or could be re-loaded from) stays protected.
func (a *Attachment) Repin(sigs []string) {
	st := a.shared.store.shared
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, live := st.pins[a.id]; !live {
		return // detached: never resurrect a released pin set
	}
	m := make(map[string]bool, len(sigs))
	for _, sig := range sigs {
		m[sig] = true
	}
	st.pins[a.id] = m
}

// Detach flushes the session's pending writes and releases its pins.
// Idempotent. The underlying store stays open for other attachments.
func (a *Attachment) Detach() error {
	if a.detached.Swap(true) {
		return nil
	}
	err := a.shared.store.Flush()
	st := a.shared.store.shared
	st.mu.Lock()
	delete(st.pins, a.id)
	st.mu.Unlock()
	a.shared.mu.Lock()
	delete(a.shared.atts, a.id)
	a.shared.mu.Unlock()
	return err
}

// refCounts snapshots, per pinned key, how many live attachments pin it.
func (st *sharedState) refCounts() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	refs := make(map[string]int)
	for _, pins := range st.pins {
		for key := range pins {
			refs[key]++
		}
	}
	return refs
}

// Refs reports how many live attachments pin key (0 outside shared mode).
func (s *Store) Refs(key string) int {
	if s.shared == nil {
		return 0
	}
	s.shared.mu.Lock()
	defer s.shared.mu.Unlock()
	n := 0
	for _, pins := range s.shared.pins {
		if pins[key] {
			n++
		}
	}
	return n
}

// Pinned reports whether any live attachment pins key.
func (s *Store) Pinned(key string) bool { return s.Refs(key) > 0 }

// TenantBytes reports the total size of entries published under tenant.
func (s *Store) TenantBytes(tenant string) int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.Tenant == tenant {
				total += e.Size
			}
		}
		sh.mu.Unlock()
	}
	return total
}
