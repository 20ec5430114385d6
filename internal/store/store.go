// Package store implements HELIX-Go's materialization store: the disk
// layer where the execution engine persists selected intermediate results
// (paper §2.1, "the execution engine selectively materializes intermediate
// results to disk") and from which later iterations load equivalent
// materializations (Definition 3).
//
// Entries are keyed by chain signature, so a stored result is by
// construction only retrievable by an equivalent operator. Values are
// serialized by a pluggable Codec (codec.go) — the default is a
// purpose-built binary format with columnar layouts, varint numerics and
// interned strings, extended per type by the packages that own the types
// (RegisterExt); legacy gob artifacts keep decoding via a header sniff.
// An artifact's file is named <signature>.gob whatever it holds: the name
// dates from the gob-only store and renaming it would orphan every
// existing directory, so read the extension as "artifact", not as the
// format (the first four bytes, "HXB1", say that). An optional simulated
// disk speed reproduces the paper's
// 170 MB/s HDD environment on faster local storage; it is applied as a
// sleep proportional to the byte count on both reads and writes, taken on
// the caller's clock (internal/clock): the host's, or a model clock that
// the sleep advances instead.
//
// # Concurrency model
//
// The store is built for many goroutines hammering it at once — the
// execution engine retires nodes from every worker goroutine, and the
// write-behind pool (writer.go) adds background writers on top:
//
//   - The entry table is sharded: each key hashes to one of shardCount
//     shards with its own mutex, so metadata operations on different keys
//     never contend on a single store-wide lock.
//   - No shard (or any store-wide) lock is ever held across disk I/O or
//     the simulated-disk throttle sleep. Mutual exclusion for a key's
//     file is provided by a per-key lock, which serializes Put/Delete/
//     load on the *same* key while leaving every other key unobstructed.
//   - Concurrent Gets of the same key are single-flighted: one goroutine
//     performs the read+decode, the rest wait and share the decoded
//     value. Stored values are treated as immutable (the engine already
//     shares them freely across node goroutines), so sharing the decode
//     is safe.
//   - The manifest is rewritten atomically (tmp file + rename) under a
//     dedicated mutex after every synchronous mutation. Write-behind
//     writes instead mark the table dirty and batch the (whole-table)
//     manifest rewrite into the Flush barrier, so the writer pool is
//     never serialized behind per-write manifest flushes.
//
// # Write-behind
//
// PutAsync enqueues a write to a bounded pool of background writer
// goroutines and returns immediately; Flush is the barrier that waits for
// every enqueued write (and its manifest update) to land. See writer.go
// for the contract. Write processes the same request in place on the
// caller's goroutine — what the engine's SyncMaterialization mode uses;
// Put/PutBytes remain as the plain synchronous writes.
package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"helix/internal/clock"
)

// Entry describes one materialized result.
type Entry struct {
	Key       string        `json:"key"`  // chain signature of the node
	Name      string        `json:"name"` // node name (diagnostics only)
	Size      int64         `json:"size"` // bytes on disk
	WriteTime time.Duration `json:"write_time"`
	Iteration int           `json:"iteration"` // iteration that produced it
	// Tenant labels which tenant namespace published the entry (shared
	// mode only; empty for private stores). Accounting, not access control:
	// artifacts are shared across tenants by content address.
	Tenant string `json:"tenant,omitempty"`
	// Refs is the number of live attachments pinning the entry at the time
	// the manifest was snapshotted (shared mode only). Diagnostic: the
	// in-memory pin table is authoritative, and a fresh open starts with
	// zero live sessions regardless of the persisted counts.
	Refs int `json:"refs,omitempty"`
}

// shardCount is the number of entry-table shards. Power of two so the
// hash can be masked; 16 comfortably exceeds the engine's worker-level
// parallelism on the synthetic workloads.
const shardCount = 16

// shard is one slice of the entry table with its own lock. The lock
// guards only the map — never disk I/O.
type shard struct {
	//lint:nolockio
	mu      sync.Mutex
	entries map[string]Entry
}

// Store is a directory-backed materialization store, safe for concurrent
// use by any number of goroutines.
type Store struct {
	// DiskBytesPerSec, when positive, simulates a disk with the given
	// throughput by sleeping size/DiskBytesPerSec on each read and write —
	// reproducing the paper's 170 MB/s HDD on faster media. Zero disables
	// simulation (real I/O timing only).
	DiskBytesPerSec float64

	// Writers is the size of the background writer pool started lazily by
	// the first PutAsync; ≤0 selects DefaultWriters. Set before the first
	// PutAsync.
	Writers int

	// QueueDepth bounds the write-behind queue; a full queue makes
	// PutAsync block (backpressure). ≤0 selects DefaultQueueDepth. Set
	// before the first PutAsync.
	QueueDepth int

	// Codec serializes stored values; nil selects the default binary
	// codec (codec.go). Set before first use. Both bundled codecs sniff
	// the format header on decode, so switching codecs on an existing
	// directory keeps old artifacts readable.
	Codec Codec

	dir string

	shards [shardCount]shard

	// keyLocks serializes file operations per key (Put vs Delete vs load
	// races on the same key) without any cross-key contention.
	keyLocks keyedMutex

	// flight single-flights concurrent Gets of the same key. The lock
	// guards only the call map; waiting for a flight's disk read happens
	// on the flightCall's done channel after release.
	//lint:nolockio
	flightMu sync.Mutex
	flight   map[string]*flightCall

	// manifestMu serializes manifest snapshots and their tmp+rename.
	manifestMu sync.Mutex
	// manifestDirty marks entry-table mutations whose manifest flush was
	// deferred to the next Flush barrier (write-behind writes only —
	// synchronous mutations flush inline).
	manifestDirty atomic.Bool

	wp writerPool

	// shared is non-nil when the store was opened via OpenShared: publish
	// becomes content-addressed write-once and Purge respects attachment
	// pins. See shared.go.
	shared *sharedState

	// loads is the self-correcting load-bandwidth model fed by measured
	// physical reads; EstimateLoad prefers its adopted bandwidth over the
	// static assumption. See loadmodel.go.
	loads loadModel
}

// codec returns the effective value codec.
func (s *Store) codec() Codec {
	if s.Codec != nil {
		return s.Codec
	}
	return defaultCodec
}

// CodecName reports the effective codec's name.
func (s *Store) CodecName() string { return s.codec().Name() }

// Open opens (creating if needed) a store rooted at dir and loads its
// manifest.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{dir: dir, flight: make(map[string]*flightCall)}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]Entry)
	}
	s.keyLocks.init()
	s.wp.init()
	manifest := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manifest)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	for _, e := range entries {
		sh := s.shardFor(e.Key)
		sh.entries[e.Key] = e
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// shardFor picks a key's shard by inline FNV-1a: this sits on every
// metadata operation from every worker and writer goroutine, and the
// hash.Hash32 route would pay two heap allocations per call.
func (s *Store) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h&(shardCount-1)]
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".gob")
}

func (s *Store) throttle(c clock.Clock, size int64) {
	if s.DiskBytesPerSec > 0 {
		c.Sleep(time.Duration(float64(size) / s.DiskBytesPerSec * float64(time.Second)))
	}
}

// Encode gob-encodes a value. This is NOT the store's on-disk codec (see
// Store.Codec) — it is the codec-independent canonical encoding used to
// compare values across sessions regardless of their configured codec
// (the fuzz harness's byte-for-byte oracle) and the payload format of
// GobCodec.
func Encode(value any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&value); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// EstimateLoad predicts the time to load size bytes, per the paper's model
// l_i = s_i / (disk read speed) (§5.3). The disk speed self-corrects: once
// the store has observed enough real reads, their measured (decayed,
// quantized) bandwidth replaces the static assumption — a fast local disk
// at 1 GB/s, or DiskBytesPerSec when simulation is on — plus a fixed 1ms
// seek either way.
func (s *Store) EstimateLoad(size int64) time.Duration {
	speed := s.loads.bandwidth()
	if speed <= 0 {
		speed = s.staticBandwidth()
	}
	return time.Millisecond + time.Duration(float64(size)/speed*float64(time.Second))
}

// staticBandwidth is the bytes/sec the static load model assumes when no
// observed bandwidth has been adopted: the configured simulated-disk
// throughput, or a fast local disk (1 GB/s) when simulation is off. It is
// also the hysteresis reference the bandwidth model measures against
// before its first adoption (see loadModel).
func (s *Store) staticBandwidth() float64 {
	if s.DiskBytesPerSec > 0 {
		return s.DiskBytesPerSec
	}
	return 1 << 30
}

// PutBytes writes pre-encoded bytes under key and records the entry. The
// write is timed (including simulated disk delay); the measured duration is
// stored in the entry and returned. The key's per-key lock is held across
// the file write so a concurrent Delete or Get of the same key cannot
// observe a half-updated file/manifest pair; no shard lock is held during
// I/O. The manifest is flushed before returning.
func (s *Store) PutBytes(key, name string, data []byte, iteration int) (Entry, error) {
	e, _, err := s.putBytes(clock.Real{}, key, name, data, iteration, "", true)
	return e, err
}

// putBytes is PutBytes on a given clock, with a tenant label (shared-mode
// byte accounting) and the manifest flush optional: the write-behind pool passes
// syncManifest=false and defers the (whole-table) manifest rewrite to the
// Flush barrier, so N background writes cost one manifest flush instead
// of N serialized ones.
//
// The payload lands atomically: it is written to a same-directory temp
// file and renamed over the final path, so no reader — in this process or
// any other session attached to a shared store — can observe a partially
// written artifact. In shared mode the publish is additionally write-once:
// if the key is already present when the per-key lock is acquired, the
// write is skipped (same signature ⇒ equivalent value, Definition 3) and
// the existing entry is returned with written=false.
func (s *Store) putBytes(c clock.Clock, key, name string, data []byte, iteration int, tenant string, syncManifest bool) (Entry, bool, error) {
	start := c.Now()
	s.keyLocks.lock(key)
	if s.shared != nil {
		sh := s.shardFor(key)
		sh.mu.Lock()
		e, ok := sh.entries[key]
		sh.mu.Unlock()
		if ok {
			s.keyLocks.unlock(key)
			return e, false, nil
		}
	}
	tmp := s.path(key) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.keyLocks.unlock(key)
		return Entry{}, false, fmt.Errorf("store: write %q: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		s.keyLocks.unlock(key)
		return Entry{}, false, fmt.Errorf("store: publish %q: %w", key, err)
	}
	s.throttle(c, int64(len(data)))
	e := Entry{
		Key:       key,
		Name:      name,
		Size:      int64(len(data)),
		WriteTime: c.Since(start),
		Iteration: iteration,
		Tenant:    tenant,
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.entries[key] = e
	sh.mu.Unlock()
	s.keyLocks.unlock(key)
	if !syncManifest {
		s.manifestDirty.Store(true)
		return e, true, nil
	}
	if err := s.flushManifest(); err != nil {
		return e, true, err
	}
	return e, true, nil
}

// Put encodes (with the store's codec) and writes a value under key.
func (s *Store) Put(key, name string, value any, iteration int) (Entry, error) {
	data, err := s.codec().Encode(value)
	if err != nil {
		return Entry{}, err
	}
	return s.PutBytes(key, name, data, iteration)
}

// flightCall is one in-flight load shared by concurrent Gets of a key.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Get loads and decodes the value stored under key on the host's clock
// (see Load).
func (s *Store) Get(key string) (any, time.Duration, error) {
	return s.Load(clock.Real{}, key)
}

// Load loads and decodes the value stored under key, returning the value
// and the caller's wait measured on c (including simulated disk delay,
// which c is slept on). Concurrent loads of the same key share a single
// disk read and decode; the returned value must therefore be treated as
// immutable, which the engine already guarantees for everything it
// stores.
func (s *Store) Load(c clock.Clock, key string) (any, time.Duration, error) {
	start := c.Now()
	s.flightMu.Lock()
	if f, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		<-f.done
		return f.val, c.Since(start), f.err
	}
	f := &flightCall{done: make(chan struct{})}
	s.flight[key] = f
	s.flightMu.Unlock()

	f.val, f.err = s.read(c, key)

	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(f.done)
	return f.val, c.Since(start), f.err
}

// read performs the physical read for Load under the key's per-key lock,
// so it cannot interleave with a Put or Delete of the same key.
func (s *Store) read(c clock.Clock, key string) (any, error) {
	s.keyLocks.lock(key)
	defer s.keyLocks.unlock(key)
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: no entry for key %q", key)
	}
	start := c.Now()
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("store: read %q: %w", key, err)
	}
	s.throttle(c, e.Size)
	// Feed the bandwidth model the physical transfer only (read plus any
	// simulated throttle). Decode time is deliberately excluded: the
	// paper's load model is l_i = s_i / (disk read speed) (§5.3), so the
	// self-correcting term is the disk-speed denominator, not codec cost —
	// folding decode in would report a "disk" many times slower than the
	// one configured and skew every load/compute trade-off.
	readDur := c.Since(start)
	value, err := s.codec().Decode(data)
	if err != nil {
		return nil, fmt.Errorf("store: %q: %w", key, err)
	}
	s.loads.observe(e.Size, readDur, s.staticBandwidth())
	return value, nil
}

// Has reports whether an entry exists for key — the engine's "equivalent
// materialization" check (Definition 3).
func (s *Store) Has(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// Entry returns the metadata for key.
func (s *Store) Entry(key string) (Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	return e, ok
}

// Delete removes the entry and its file. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) error {
	s.keyLocks.lock(key)
	sh := s.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.entries[key]
	delete(sh.entries, key)
	sh.mu.Unlock()
	var rmErr error
	if ok {
		rmErr = os.Remove(s.path(key))
	}
	s.keyLocks.unlock(key)
	if !ok {
		return nil
	}
	if rmErr != nil && !os.IsNotExist(rmErr) {
		return fmt.Errorf("store: delete %q: %w", key, rmErr)
	}
	return s.flushManifest()
}

// Purge removes every entry for which keep returns false, returning the
// bytes freed. Used to deprecate old results when operators change (paper
// §6.6: "HELIX purges any previous materialization of original operators
// prior to execution").
//
// In shared mode an entry pinned by any live attachment is never purged,
// regardless of keep: a pin means some attached session's last executed
// plan depends on the artifact, and evicting it under that session would
// invalidate results it may still load. The pin check is re-taken per key
// at deletion time, so a Repin that lands between the snapshot and the
// delete still protects its entries.
func (s *Store) Purge(keep func(key string) bool) (freed int64, err error) {
	// Snapshot first: keep may call back into the store (e.g. Entry), so it
	// must run without any shard lock held.
	keys := s.Keys()
	var doomed []string
	for _, k := range keys {
		if !keep(k) {
			doomed = append(doomed, k)
		}
	}
	removed := false
	for _, k := range doomed {
		if s.shared != nil && s.Pinned(k) {
			continue
		}
		s.keyLocks.lock(k)
		sh := s.shardFor(k)
		sh.mu.Lock()
		e, ok := sh.entries[k]
		if ok {
			delete(sh.entries, k)
		}
		sh.mu.Unlock()
		if ok {
			removed = true
			freed += e.Size
			if rmErr := os.Remove(s.path(k)); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
				err = fmt.Errorf("store: purge %q: %w", k, rmErr)
			}
		}
		s.keyLocks.unlock(k)
	}
	// The entry table is unchanged when nothing was removed (the common
	// case: most iterations deprecate no stored result), so the
	// whole-table manifest rewrite would reproduce the file already there.
	if !removed {
		return 0, nil
	}
	if ferr := s.flushManifest(); ferr != nil && err == nil {
		err = ferr
	}
	return freed, err
}

// UsedBytes reports the total size of stored entries.
func (s *Store) UsedBytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			total += e.Size
		}
		sh.mu.Unlock()
	}
	return total
}

// Len reports the number of stored entries.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Keys returns all stored keys, sorted (for deterministic iteration).
func (s *Store) Keys() []string {
	var keys []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// snapshotEntries collects a point-in-time copy of the entry table. In
// shared mode each entry's Refs field is stamped with the current live
// pin count (taken before the shard locks — pin and shard locks never
// nest).
func (s *Store) snapshotEntries() []Entry {
	var refs map[string]int
	if s.shared != nil {
		refs = s.shared.refCounts()
	}
	var entries []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			e.Refs = refs[e.Key]
			entries = append(entries, e)
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(entries, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return entries
}

// flushManifest persists the entry table atomically. manifestMu is taken
// before the snapshot so concurrent flushes cannot commit an older table
// over a newer one; every mutation triggers its own flush, so the last
// writer always leaves the manifest current.
func (s *Store) flushManifest() error {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	entries := s.snapshotEntries()
	// Compact JSON: the manifest is rewritten whole on every flush and
	// only ever read back by json.Unmarshal, which takes either form.
	data, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, "manifest.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, "manifest.json")); err != nil {
		return fmt.Errorf("store: commit manifest: %w", err)
	}
	return nil
}

// keyedMutex provides a mutex per string key, created on demand and
// reclaimed when the last holder releases it.
type keyedMutex struct {
	// mu guards only the per-key lock map; the per-key locks themselves
	// (keyLockEntry.mu) are held across file I/O by design and are
	// deliberately not annotated.
	//lint:nolockio
	mu    sync.Mutex
	locks map[string]*keyLockEntry
}

type keyLockEntry struct {
	mu   sync.Mutex
	refs int
}

func (k *keyedMutex) init() {
	k.locks = make(map[string]*keyLockEntry)
}

func (k *keyedMutex) lock(key string) {
	k.mu.Lock()
	e, ok := k.locks[key]
	if !ok {
		e = &keyLockEntry{}
		k.locks[key] = e
	}
	e.refs++
	k.mu.Unlock()
	e.mu.Lock()
}

func (k *keyedMutex) unlock(key string) {
	k.mu.Lock()
	e := k.locks[key]
	e.refs--
	if e.refs == 0 {
		delete(k.locks, key)
	}
	k.mu.Unlock()
	e.mu.Unlock()
}
