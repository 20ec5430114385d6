package plan

import (
	"sync"

	"helix/internal/core"
)

// sharedCacheCapacity bounds the process-wide shared plan cache's MRU
// list. Much larger than the per-session bound: a shared cache serves
// every attached session's workflows, and each entry is small relative to
// the solve it saves.
const sharedCacheCapacity = 64

// SharedCache is the process-wide, fingerprint-keyed plan cache used when
// sessions share a content-addressed store (store.OpenShared). It
// replaces each session's private 4-entry MRU: session B's first Run of a
// workflow session A already planned — same DAG, same configuration, same
// store view — is a full fingerprint hit with zero max-flow solves.
//
// Alongside the plans it keeps a frozen per-signature statistics board.
// Cross-session full hits need byte-identical fingerprints, and the
// fingerprint covers the carried cost statistics that become the solver's
// c_i — so every session must plan from the same numbers. The first
// session to execute a node publishes its measured metrics under the
// node's chain signature (first writer wins, same as the artifact store's
// write-once publish); every later planning pass applies the board over
// its own carried metrics. The trade-off is deliberate: shared mode
// freezes the cost model per signature in exchange for cross-session plan
// determinism.
type SharedCache struct {
	cache *Cache

	mu    sync.Mutex
	stats map[string]core.Metrics // chain signature → frozen measured metrics
}

// NewSharedCache returns an empty shared plan cache. Its inner Cache
// carries no session ConfigToken — each Plan call supplies its own
// (Planner.ConfigToken), so sessions opened under different
// configurations still never reuse each other's decisions.
func NewSharedCache() *SharedCache {
	return &SharedCache{
		cache: &Cache{capacity: sharedCacheCapacity},
		stats: make(map[string]core.Metrics),
	}
}

// Cache returns the inner fingerprint-keyed plan cache to attach to a
// Planner. All its methods are mutex-guarded, so any number of sessions'
// planners may consult it concurrently.
func (sc *SharedCache) Cache() *Cache { return sc.cache }

// Stats reports the inner cache's hit/partial/miss counters.
func (sc *SharedCache) Stats() CacheStats { return sc.cache.Stats() }

// PublishStats records the measured metrics of every Known node in an
// executed DAG under its chain signature. First writer wins: once a
// signature has frozen metrics, later measurements are ignored, so all
// sessions keep planning from identical solver inputs.
func (sc *SharedCache) PublishStats(d *core.DAG) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, n := range d.Nodes() {
		if !n.Metrics.Known {
			continue
		}
		sig := n.ChainSignature()
		if _, ok := sc.stats[sig]; !ok {
			sc.stats[sig] = n.Metrics
		}
	}
}

// ApplyStats overwrites the DAG's carried metrics with the frozen board
// wherever a node's chain signature has an entry. Called by the planner
// after DAG.Track's metric carry, so a session's privately measured
// numbers never leak into a fingerprint other sessions must reproduce.
func (sc *SharedCache) ApplyStats(d *core.DAG) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, n := range d.Nodes() {
		if m, ok := sc.stats[n.ChainSignature()]; ok {
			n.Metrics = m
		}
	}
}
