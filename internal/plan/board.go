package plan

import (
	"sync"

	"helix/internal/core"
)

// processCacheCapacity bounds the MRU list of a cache that serves every
// session of a process. Much larger than the per-session bound, since
// one cache then holds every attached session's workflows, and each
// entry is small relative to the solve it saves.
const processCacheCapacity = 64

// NewProcessCache returns an empty plan cache for every session attached
// to one shared store: session B's first Run of a workflow session A
// already planned — same DAG, same configuration, same store view — is a
// full fingerprint hit with zero max-flow solves. It carries no
// ConfigToken: each Plan call supplies its own (Planner.ConfigToken), so
// sessions opened under different configurations still never reuse each
// other's decisions.
func NewProcessCache() *Cache { return &Cache{capacity: processCacheCapacity} }

// StatsBoard is the frozen per-signature statistics board of sessions
// sharing one store. Cross-session full hits need byte-identical
// fingerprints, and the fingerprint covers the carried cost statistics
// that become the solver's c_i — so every session must plan from the
// same numbers. The first session to execute a node publishes its
// measured metrics under the node's chain signature (first writer wins,
// same as the shared store's write-once publish); every later planning
// pass applies the board over its own carried metrics. The trade-off is
// deliberate: shared mode freezes the cost model per signature in
// exchange for cross-session plan determinism. The zero value is an
// empty board; all methods are safe for concurrent use.
type StatsBoard struct {
	mu    sync.Mutex
	stats map[string]core.Metrics // chain signature → frozen measured metrics
}

// Publish records the measured metrics of every Known node in an
// executed DAG under its chain signature. First writer wins: once a
// signature has frozen metrics, later measurements are ignored, so all
// sessions keep planning from identical solver inputs.
func (b *StatsBoard) Publish(d *core.DAG) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stats == nil {
		b.stats = make(map[string]core.Metrics)
	}
	for _, n := range d.Nodes() {
		if !n.Metrics.Known {
			continue
		}
		sig := n.ChainSignature()
		if _, ok := b.stats[sig]; !ok {
			b.stats[sig] = n.Metrics
		}
	}
}

// Apply overwrites the DAG's carried metrics with the frozen board
// wherever a node's chain signature has an entry. Called by the planner
// after DAG.Track's metric carry, so a session's privately measured
// numbers never leak into a fingerprint other sessions must reproduce.
func (b *StatsBoard) Apply(d *core.DAG) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range d.Nodes() {
		if m, ok := b.stats[n.ChainSignature()]; ok {
			n.Metrics = m
		}
	}
}
