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
//   - The manifest is manifest.json, a compacted base, plus
//     manifest.journal, an append-only record of the keys changed since
//     (journal.go). Every mutation marks its key dirty; a synchronous
//     Put/Delete/Purge appends put/delete records for the dirty keys at
//     once, and write-behind writes leave theirs to the Flush barrier, so
//     N background writes cost one append, not N. Appending is one
//     write(2) under a dedicated mutex, never an fsync: the base is
//     rewritten (tmp file + fsync + rename) only by the compaction in Close
//     and in Open when a journal is present.
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
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// CRC is the CRC-32C of the artifact, checked by every load. Nil (not
	// 0, a valid checksum) for entries written before, which load unchecked.
	CRC *uint32 `json:"crc,omitempty"`
}

// ErrChecksum reports an artifact whose bytes do not match its entry's
// CRC-32C.
var ErrChecksum = errors.New("store: artifact checksum mismatch")

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
	seed   maphash.Seed // shardFor's

	// keyLocks serializes file operations per key (Put vs Delete vs load
	// races on the same key) without any cross-key contention.
	keyLocks keyedMutex

	// flight single-flights concurrent Gets of the same key. The lock
	// guards only the call map; waiting for a flight's disk read happens
	// on the flightCall's done channel after release.
	//lint:nolockio
	flightMu sync.Mutex
	flight   map[string]*flightCall

	// manifestMu serializes journal appends and compactions, and guards
	// journal, journaled and persistErr. It is held across that I/O.
	manifestMu sync.Mutex
	journal    *Journal
	// journaled reports that the journal may hold records the base does
	// not: a compaction is due at Close.
	journaled bool
	// persistErr is the first failed journal append or compaction, which
	// no mutation fails on (the entry is in the table, and the next
	// compaction records it); Close returns it.
	persistErr error

	// dirtyMu guards dirty, the keys mutated since the journal last
	// recorded them.
	//lint:nolockio
	dirtyMu sync.Mutex
	dirty   map[string]struct{}

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

// The manifest's base and journal within the store directory.
const (
	manifestFile        = "manifest.json"
	manifestJournalFile = "manifest.journal"
)

// Open opens (creating if needed) a private store rooted at dir and loads
// its manifest: the base, then whatever the journal recorded after it.
// When a journal is present it is compacted into the base at once. Open
// also removes what a crash mid-write leaves: a <key>.gob.tmp that never
// got renamed, and a stale manifest temp file.
func Open(dir string) (*Store, error) { return openStore(dir, true) }

// openStore is Open, with the sweep of temp files optional: a shared store
// skips it, since another process may be publishing into the directory
// right now.
func openStore(dir string, sweep bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if sweep {
		sweepTemps(dir)
	}
	entries, journaled, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		seed:    maphash.MakeSeed(),
		dir:     dir,
		flight:  make(map[string]*flightCall),
		journal: NewJournal(filepath.Join(dir, manifestJournalFile)),
		dirty:   make(map[string]struct{}),
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]Entry)
	}
	s.keyLocks.init()
	s.wp.init()
	for _, e := range entries {
		if e.Size < 0 {
			// A size is where the manifest's statistics enter planning
			// (the load estimate), and a negative one is garbage: read it
			// as unknown and ask the artifact itself. An artifact that is
			// gone takes its entry with it.
			fi, err := os.Stat(s.path(e.Key))
			if err != nil {
				continue
			}
			e.Size = fi.Size()
		}
		s.shardFor(e.Key).entries[e.Key] = e
	}
	if journaled {
		// Start from an empty journal: a torn tail a crash left would
		// otherwise hide every record appended behind it. Should this
		// compaction fail, Close tries again.
		s.manifestMu.Lock()
		s.journaled = true
		s.compactManifest()
		s.manifestMu.Unlock()
	}
	return s, nil
}

// sweepTemps removes the temp files of writes a crash interrupted: an
// artifact's <key>.gob.tmp (putBytes) and the manifest's temp file, under
// both the name WriteFileSync gives it and the fixed one older builds
// used. Best effort: what cannot be removed is only wasted space.
func sweepTemps(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasSuffix(name, ".gob.tmp") || name == manifestFile+".tmp" || strings.HasPrefix(name, manifestFile+".tmp-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// manifestRecord is one manifest.journal record: a key's entry after a
// mutation, or its deletion. Exactly one field is set.
type manifestRecord struct {
	Put    *Entry `json:"put,omitempty"`
	Delete string `json:"delete,omitempty"`
}

// ReadManifest reads the manifest of the store in dir as Open does — the
// base, then the journal's intact prefix — sorted by key. It is for
// readers outside a live Store (tests, the fuzz harness); a missing
// manifest is an empty one.
func ReadManifest(dir string) ([]Entry, error) {
	byKey, _, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(byKey))
	for _, e := range byKey {
		entries = append(entries, e)
	}
	slices.SortFunc(entries, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return entries, nil
}

// readManifest loads the base and replays the journal over it, reporting
// whether a journal file was there. A base that is unreadable or not a
// manifest is an error; a journal is trusted up to its first torn or
// corrupt record, whatever follows.
func readManifest(dir string) (map[string]Entry, bool, error) {
	byKey := make(map[string]Entry)
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	switch {
	case err == nil:
		var entries []Entry
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, false, fmt.Errorf("store: decode manifest: %w", err)
		}
		for _, e := range entries {
			byKey[e.Key] = e
		}
	case !os.IsNotExist(err):
		return nil, false, fmt.Errorf("store: read manifest: %w", err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, manifestJournalFile))
	if os.IsNotExist(err) {
		return byKey, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read manifest journal: %w", err)
	}
	replayManifest(byKey, journal)
	return byKey, true, nil
}

// replayManifest applies the journal's intact records to byKey and
// returns the length of the prefix it applied. A record that is not
// exactly one put of a keyed entry or one delete ends the replay like a
// torn frame. Records are idempotent per key, so replaying a journal
// over the base it was compacted into changes nothing.
func replayManifest(byKey map[string]Entry, journal []byte) int {
	return Frames(journal, func(payload []byte) bool {
		var rec manifestRecord
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		switch {
		case rec.Put != nil && rec.Delete == "" && rec.Put.Key != "":
			byKey[rec.Put.Key] = *rec.Put
		case rec.Put == nil && rec.Delete != "":
			delete(byKey, rec.Delete)
		default:
			return false
		}
		return true
	})
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// shardFor picks a key's shard. This sits on every metadata operation
// from every worker and writer goroutine, and on one lookup per live node
// of every plan, so it takes the runtime's hash of the key (seeded per
// store): a byte-at-a-time loop over a 64-character signature cost more
// than the map lookup it precedes.
func (s *Store) shardFor(key string) *shard {
	return &s.shards[maphash.String(s.seed, key)&(shardCount-1)]
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
// I/O. The manifest journal records the entry before returning.
func (s *Store) PutBytes(key, name string, data []byte, iteration int) (Entry, error) {
	e, _, err := s.putBytes(clock.Real{}, key, name, data, iteration, "", true)
	return e, err
}

// putBytes is PutBytes on a given clock, with a tenant label (shared-mode
// byte accounting) and the manifest record optional: the write-behind
// pool passes syncManifest=false and leaves the key dirty for the Flush
// barrier, so N background writes cost one journal append instead of N
// serialized ones.
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
	crc := crc32.Checksum(data, castagnoli)
	e := Entry{
		Key:       key,
		Name:      name,
		Size:      int64(len(data)),
		WriteTime: c.Since(start),
		Iteration: iteration,
		Tenant:    tenant,
		CRC:       &crc,
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.entries[key] = e
	sh.mu.Unlock()
	s.keyLocks.unlock(key)
	s.markDirty(key)
	if syncManifest {
		s.flushManifest()
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
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("store: read %q: %w", key, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: read %q: %w", key, err)
	}
	s.throttle(c, e.Size)
	// The codec pulls the file as it decodes (codec.go, "How a load
	// reads"), so the value is the only full-size allocation.
	src := &timedFile{f: f, c: c}
	opened := c.Since(start)
	value, err := s.codec().DecodeFrom(src, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("store: %q: %w", key, err)
	}
	// A decode that succeeded pulled every byte of the file (it fails on
	// bytes left over), so the running checksum covers the whole artifact.
	if e.CRC != nil && src.crc != *e.CRC {
		return nil, fmt.Errorf("store: %q: %w", key, ErrChecksum)
	}
	// Feed the bandwidth model the physical transfer only (the open, the
	// reads and any simulated throttle). Decode time is deliberately
	// excluded: the paper's load model is l_i = s_i / (disk read speed)
	// (§5.3), so the self-correcting term is the disk-speed denominator,
	// not codec cost — folding decode in would report a "disk" many times
	// slower than the one configured and skew every load/compute
	// trade-off.
	s.loads.observe(e.Size, opened+src.spent, s.staticBandwidth())
	return value, nil
}

// timedFile is an artifact's file that sums the time its reads take on
// the load's clock (the decode runs between those reads and is not
// counted) and the CRC-32C of the bytes they return.
type timedFile struct {
	f     *os.File
	c     clock.Clock
	spent time.Duration
	crc   uint32
}

func (t *timedFile) Read(p []byte) (int, error) {
	start := t.c.Now()
	n, err := t.f.Read(p)
	t.spent += t.c.Since(start)
	t.crc = crc32.Update(t.crc, castagnoli, p[:n])
	return n, err
}

// Verify reads key's artifact and checks its size and CRC-32C against the
// entry, without decoding it. A mismatch is ErrChecksum, an artifact that
// cannot be read returns the read error, and an entry written without a
// checksum (see Entry.CRC) verifies as nil.
func (s *Store) Verify(key string) error {
	s.keyLocks.lock(key)
	defer s.keyLocks.unlock(key)
	e, ok := s.Entry(key)
	if !ok {
		return fmt.Errorf("store: no entry for key %q", key)
	}
	if e.CRC == nil {
		return nil
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		return fmt.Errorf("store: verify %q: %w", key, err)
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("store: verify %q: %w", key, err)
	}
	if n != e.Size || h.Sum32() != *e.CRC {
		return fmt.Errorf("store: %q: %w", key, ErrChecksum)
	}
	return nil
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

// Delete removes the entry and its file, returning the entry's size.
// Deleting a missing key is a no-op; a file that cannot be removed still
// loses its entry.
func (s *Store) Delete(key string) (freed int64, err error) {
	s.keyLocks.lock(key)
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	delete(sh.entries, key)
	sh.mu.Unlock()
	var rmErr error
	if ok {
		rmErr = os.Remove(s.path(key))
	}
	s.keyLocks.unlock(key)
	if !ok {
		return 0, nil
	}
	s.markDirty(key)
	s.flushManifest()
	if rmErr != nil && !os.IsNotExist(rmErr) {
		return e.Size, fmt.Errorf("store: delete %q: %w", key, rmErr)
	}
	return e.Size, nil
}

// Purge removes every entry for which keep returns false, returning the
// bytes freed. Used to deprecate old results when operators change (paper
// §6.6: "HELIX purges any previous materialization of original operators
// prior to execution"). keep sees each key with its entry, under the
// lock of the key's shard: it must not call back into the store.
//
// In shared mode an entry pinned by any live attachment is never purged,
// regardless of keep: a pin means some attached session's last executed
// plan depends on the artifact, and evicting it under that session would
// invalidate results it may still load. The pin check is re-taken per key
// at deletion time, so a Repin that lands between the visit and the
// delete still protects its entries.
func (s *Store) Purge(keep func(key string, e Entry) bool) (freed int64, err error) {
	var doomed []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if !keep(k, e) {
				doomed = append(doomed, k)
			}
		}
		sh.mu.Unlock()
	}
	var removed []string
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
			removed = append(removed, k)
			freed += e.Size
			if rmErr := os.Remove(s.path(k)); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
				err = fmt.Errorf("store: purge %q: %w", k, rmErr)
			}
		}
		s.keyLocks.unlock(k)
	}
	// The common case — most iterations deprecate no stored result —
	// leaves the manifest untouched.
	if len(removed) == 0 {
		return 0, nil
	}
	s.markDirty(removed...)
	s.flushManifest()
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

// markDirty records that keys' entries changed since the journal last
// recorded them.
func (s *Store) markDirty(keys ...string) {
	s.dirtyMu.Lock()
	for _, k := range keys {
		s.dirty[k] = struct{}{}
	}
	s.dirtyMu.Unlock()
}

// flushManifest appends one journal record per dirty key — its entry as
// the table holds it now, or its deletion — in a single write. Reading
// the table under manifestMu makes the last record appended for a key
// its latest state, whatever order concurrent mutations flush in. A
// failed append fails no mutation: it is kept for Close, whose
// compaction writes the table whole.
func (s *Store) flushManifest() {
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	s.dirtyMu.Lock()
	keys := make([]string, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, k)
	}
	clear(s.dirty)
	s.dirtyMu.Unlock()
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	s.journaled = true
	payloads := make([][]byte, 0, len(keys))
	for _, k := range keys {
		var rec manifestRecord
		if e, ok := s.Entry(k); ok {
			e.Refs = s.Refs(k)
			rec.Put = &e
		} else {
			rec.Delete = k
		}
		data, _ := json.Marshal(rec) // strings and integers: always encodes
		payloads = append(payloads, data)
	}
	s.keepErr(s.journal.Append(payloads...))
}

// compactManifest writes the whole entry table as the base and removes
// the journal. Dirty keys are cleared first, not appended: the table
// already holds their changes, and a mutation landing after the clear
// marks its key again. The caller holds manifestMu. A mutation racing
// the snapshot (only another attachment of a shared store can) is in the
// base but not yet in the journal, so a crash between the rename and the
// removal would replay that key's older record over it: a missing entry
// or a failed load, which costs recomputation, never a wrong value.
func (s *Store) compactManifest() {
	s.dirtyMu.Lock()
	clear(s.dirty)
	s.dirtyMu.Unlock()
	data, err := json.Marshal(s.snapshotEntries())
	if err == nil {
		err = WriteFileSync(filepath.Join(s.dir, manifestFile), data)
	}
	if err != nil {
		// The journal is still the only record of what the base lacks.
		s.keepErr(err)
		s.journal.Close()
		return
	}
	s.journaled = false
	s.keepErr(s.journal.Remove())
}

// keepErr remembers err if it is the first persistence error since the
// last Close. The caller holds manifestMu.
func (s *Store) keepErr(err error) {
	if s.persistErr == nil {
		s.persistErr = err
	}
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
