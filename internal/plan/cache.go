package plan

import (
	"fmt"
	"sync"

	"helix/internal/core"
)

// CacheOutcome reports how the planner obtained a Plan.
type CacheOutcome int

const (
	// CacheCold means the plan was solved from scratch: no cache was
	// attached, or no cached plan had the same fingerprint.
	CacheCold CacheOutcome = iota
	// CachePartial is never produced. It stays declared only because the
	// repository benchmark names it, and goes when the benchmark stops
	// naming it (ROADMAP item 8).
	CachePartial
	// CacheHit means the full fingerprint matched and the previous plan
	// was reused wholesale: no slicing decision changed, no bitsets were
	// rebuilt, and no max-flow solve ran.
	CacheHit
)

// String returns a short label for benchmark tables and Explain output.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CachePartial:
		return "partial"
	default:
		return "cold"
	}
}

// CacheStats counts cache consultations by outcome.
type CacheStats struct {
	// Hits counts full-fingerprint reuses: zero max-flow solves.
	Hits int64
	// Misses counts plans solved entirely from scratch.
	Misses int64
}

// Cache holds recent iterations' fingerprinted plans for whole-plan
// reuse. A Cache belongs to one logical session: its ConfigToken pins
// the execution configuration (policy, budget, parallelism, …) the cached
// plans were built under, so a session opened with different options can
// never reuse another configuration's decisions. The zero value is usable;
// NewCache sets the token. All methods are safe for concurrent use,
// though the planner pipeline around them is not.
//
// The cache retains a small MRU list rather than a single entry so that
// interleaved planning of other workflows — Session.Plan is documented as
// pure inspection — cannot evict the steady-state entry the next Run's
// full hit depends on.
type Cache struct {
	// ConfigToken is an opaque description of every engine-level setting
	// outside the planner's own Options that the owner wants plan reuse
	// conditioned on. It is hashed into the fingerprint: a changed token
	// is a changed fingerprint, forcing a fresh solve.
	ConfigToken string

	// capacity bounds the MRU list; ≤0 selects cacheCapacity. The shared
	// process-wide cache (SharedCache) raises it, since one cache then
	// serves every attached session's workflows.
	capacity int

	mu      sync.Mutex
	entries []*cacheEntry // most recently stored/hit first
	stats   CacheStats
}

// cacheCapacity bounds the MRU list. Four entries cover a main workflow
// plus a few inspected variants between runs; each entry retains one plan
// and one DAG generation, so the bound also caps memory.
const cacheCapacity = 4

// cacheEntry is one retained plan under the fingerprint it was solved
// for. The fingerprint covers the configuration token, so a run-scoped
// configuration override can never inherit another configuration's
// decisions.
type cacheEntry struct {
	fp   Fingerprint
	plan *Plan
}

// NewCache returns an empty plan cache whose fingerprints are bound to
// the given configuration token.
func NewCache(configToken string) *Cache {
	return &Cache{ConfigToken: configToken}
}

// Stats returns a snapshot of the cache's hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// hit returns the cached plan rebound onto the current DAG when the full
// fingerprint matches, or nil. A hit performs no solve and no bitset
// construction: rows are copied with their Node pointers remapped
// positionally (the fingerprint covers names and topology, so position i
// is the same operator), and the ancestor table is shared.
func (c *Cache) hit(fp Fingerprint, in *planInputs) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var e *cacheEntry
	for i, ent := range c.entries {
		if ent.fp == fp {
			e = ent
			// Move to front: this is the live workflow's entry.
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			break
		}
	}
	if e == nil {
		return nil
	}
	cached := e.plan
	p := &Plan{
		Iteration:        in.iteration,
		Nodes:            make([]*NodePlan, len(in.order)),
		ProjectedSeconds: cached.ProjectedSeconds,
		Counts:           make(map[core.State]int, len(cached.Counts)),
		// The purge decision is derived from the chain-signature set and
		// the originals — both fingerprint-covered — so the cached spec is
		// identical and the hit path skips rebuilding its maps.
		Purge:       cached.Purge,
		Cache:       CacheHit,
		Fingerprint: fp,
		// Fused runs are positional (indices into Nodes), so they survive
		// rebinding unchanged; the fingerprint covers streamable flags and
		// the streaming option bit, so a hit guarantees the same fusion
		// decision. Dropping them here would silently unfuse cache-hit
		// iterations (and strand rows whose FuseGroup points nowhere).
		Fused:     cached.Fused,
		FusedSigs: cached.FusedSigs,
		anc:       cached.anc,
		ancWords:  cached.ancWords,
	}
	for s, n := range cached.Counts {
		p.Counts[s] = n
	}
	rows := make([]NodePlan, len(in.order))
	for i, n := range in.order {
		rows[i] = *cached.Nodes[i]
		rows[i].Node = n
		p.Nodes[i] = &rows[i]
	}
	// Retain the rebound plan so at most one DAG generation per entry
	// stays reachable through the cache.
	e.plan = p
	c.stats.Hits++
	return p
}

// store records the freshly solved plan as the most recent cache entry,
// ages out the oldest beyond capacity, and tallies the miss.
func (c *Cache) store(fp Fingerprint, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{fp: fp, plan: p}
	c.entries = append(c.entries, nil)
	copy(c.entries[1:], c.entries)
	c.entries[0] = e
	max := c.capacity
	if max <= 0 {
		max = cacheCapacity
	}
	if len(c.entries) > max {
		c.entries = c.entries[:max]
	}
	c.stats.Misses++
}

// String summarizes the stats for logs.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d", s.Hits, s.Misses)
}
