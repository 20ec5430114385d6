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
// The engine retires nodes from its worker goroutines and the write-behind
// pool (writer.go) adds background writers on top, so the store is safe
// for concurrent use:
//
//   - One mutex, Store.mu, guards the in-memory state: the entry table
//     and the byte ledger beside it, the dirty keys, the keys whose file
//     is in use, and the in-flight loads. A run does a few map operations
//     per node it plans, retires or writes, so nothing contends on it for
//     long.
//   - mu is never held across disk I/O or the simulated-disk throttle
//     sleep. A key's file is claimed instead (lockKey/unlockKey): Put,
//     Delete, load and Verify of the same key take turns, waiting on a
//     condition variable over mu, while every other key proceeds.
//   - Concurrent loads of the same key are single-flighted: one goroutine
//     performs the read+decode, the rest wait and share the decoded
//     value. Stored values are treated as immutable (the engine already
//     shares them freely across node goroutines), so sharing the decode
//     is safe.
//   - The manifest is manifest.json, a compacted base, plus
//     manifest.journal, an append-only record of the keys changed since
//     (journal.go). A mutation marks its key dirty in the critical section
//     that changes the table; a synchronous Put/Delete/Purge appends
//     put/delete records for the dirty keys at once, and write-behind
//     writes leave theirs to the Flush barrier, so N background writes
//     cost one append, not N. Appending is one write(2) under a dedicated
//     mutex, never an fsync: the base is rewritten (tmp file + fsync +
//     rename) only by the compaction in Close and in Open when a journal
//     is present.
//
// # Write-behind
//
// PutAsync enqueues a write to a bounded pool of background writer
// goroutines and returns immediately; Flush is the barrier that waits for
// every enqueued write (and its manifest update) to land. See writer.go
// for the contract. Write processes the same request in place on the
// caller's goroutine — what the engine uses on a model clock, whose runs
// are serial; Put/PutBytes remain as the plain synchronous writes.
package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
	// CRC is the CRC-32C of the artifact, checked by every load. Nil (not
	// 0, a valid checksum) for entries written before, which load unchecked.
	CRC *uint32 `json:"crc,omitempty"`
}

// ErrChecksum reports an artifact whose bytes do not match its entry's
// CRC-32C.
var ErrChecksum = errors.New("store: artifact checksum mismatch")

// Store is a directory-backed materialization store, safe for concurrent
// use by any number of goroutines.
type Store struct {
	// DiskBytesPerSec, when positive, simulates a disk with the given
	// throughput by sleeping size/DiskBytesPerSec on each read and write —
	// reproducing the paper's 170 MB/s HDD on faster media. Zero disables
	// simulation (real I/O timing only).
	DiskBytesPerSec float64

	// Codec serializes stored values; nil selects the default binary
	// codec (codec.go). Set before first use. Both bundled codecs sniff
	// the format header on decode, so switching codecs on an existing
	// directory keeps old artifacts readable.
	Codec Codec

	dir string

	// mu guards the fields below it up to manifestMu, and only them.
	//lint:nolockio
	mu      sync.Mutex
	entries map[string]Entry
	// dirty holds the keys mutated since the journal last recorded them.
	dirty map[string]struct{}
	// busy holds the keys whose file is in use (lockKey); keyFree is
	// signalled whenever one leaves it.
	busy    map[string]bool
	keyFree sync.Cond
	// flight holds the in-flight load of each key being loaded.
	flight map[string]*flightCall
	// The byte ledger, kept in step with entries (putEntry, dropEntry):
	// used is every entry's bytes, held the bytes of each tenant label,
	// and reserved the bytes of budgeted writes admitted and not yet
	// settled, per budget account (see charged). Nothing else counts
	// stored bytes.
	used     int64
	held     map[string]int64
	reserved map[string]int64

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

	wp writerPool

	// shared is set when the store was opened via OpenShared: publish
	// becomes content-addressed write-once.
	shared bool

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
func Open(dir string) (*Store, error) { return openStore(dir, false) }

// OpenShared opens (creating if needed) a store that any number of
// sessions, in this process or others, publish into and load from at
// once. It differs from Open in two ways. Publish is content-addressed
// write-once: a chain signature is a sha256 over the operator chain that
// produced the value, so two sessions computing the same signature
// computed equivalent values (Definition 3) and the first publish wins.
// And it leaves temp files alone: another process may be mid-publish into
// the same directory.
func OpenShared(dir string) (*Store, error) { return openStore(dir, true) }

// openStore is Open, or OpenShared when shared is set.
func openStore(dir string, shared bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if !shared {
		sweepTemps(dir)
	}
	entries, journaled, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		entries:  make(map[string]Entry, len(entries)),
		dirty:    make(map[string]struct{}),
		busy:     make(map[string]bool),
		flight:   make(map[string]*flightCall),
		held:     make(map[string]int64),
		reserved: make(map[string]int64),
		journal:  NewJournal(filepath.Join(dir, manifestJournalFile)),
		shared:   shared,
	}
	s.keyFree.L = &s.mu
	s.wp.init()
	for k, e := range entries {
		if e.Size < 0 {
			// A size is where the manifest's statistics enter planning
			// (the load estimate) and the budget's ledger, and a negative
			// one is garbage: read it as unknown and ask the artifact
			// itself. An artifact that is gone takes its entry with it.
			fi, err := os.Stat(s.path(k))
			if err != nil {
				continue
			}
			e.Size = fi.Size()
		}
		s.putEntry(e)
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
// artifact's <key>.gob.tmp (writeArtifact) and the manifest's temp file, under
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
// stored in the entry and returned. The key's file is claimed (lockKey)
// across the write so a concurrent Delete or Get of the same key cannot
// observe a half-updated file/manifest pair; mu is not held during I/O.
// The manifest journal records the entry before returning.
func (s *Store) PutBytes(key, name string, data []byte, iteration int) (Entry, error) {
	e, _, err := s.putBytes(clock.Real{}, WriteRequest{Key: key, Name: name, Iteration: iteration}, data, true)
	return e, err
}

// putBytes writes data as req's artifact on clock c, reporting whether
// it landed. The write-behind pool passes syncManifest=false and leaves
// the key dirty for the Flush barrier, so N background writes cost one
// journal append instead of N serialized ones.
//
// A request with a Budget is admitted by the size of data: the bytes its
// account holds, plus the budgeted writes admitted before it and not yet
// settled, plus data must fit the budget, or the write is declined
// (written=false, no error). The admission reserves the bytes, and this
// function settles the reservation whatever the write's fate: landed
// bytes move from reserved to held in one critical section, and a failed
// write returns them.
//
// The payload lands atomically: it is written to a same-directory temp
// file and renamed over the final path, so no reader — in this process or
// any other session attached to a shared store — can observe a partially
// written artifact. In shared mode the publish is additionally write-once:
// if the key is already present when its file is claimed, the write is
// skipped (same signature ⇒ equivalent value, Definition 3) and the
// existing entry is returned with written=false.
func (s *Store) putBytes(c clock.Clock, req WriteRequest, data []byte, syncManifest bool) (Entry, bool, error) {
	start := c.Now()
	key, size := req.Key, int64(len(data))
	if e, ok := s.lockKey(key); ok && s.shared {
		s.unlockKey(key)
		return e, false, nil
	}
	var account string
	var charged, reserved int64
	if req.Budget > 0 {
		s.mu.Lock()
		account, charged = s.charged(req.Tenant)
		fits := charged+size <= req.Budget
		if fits {
			reserved = size
			s.reserved[account] += size
		}
		s.mu.Unlock()
		if !fits {
			s.unlockKey(key)
			return Entry{}, false, nil
		}
	}
	e := Entry{Key: key, Name: req.Name, Size: size, Iteration: req.Iteration, Tenant: req.Tenant}
	err := s.writeArtifact(c, key, data)
	if err == nil {
		crc := crc32.Checksum(data, castagnoli)
		e.CRC = &crc
		e.WriteTime = c.Since(start)
	}
	s.mu.Lock()
	if s.reserved[account] -= reserved; s.reserved[account] == 0 {
		delete(s.reserved, account)
	}
	if err == nil {
		s.putEntry(e)
		s.dirty[key] = struct{}{}
	}
	s.mu.Unlock()
	s.unlockKey(key)
	if err != nil {
		return Entry{}, false, err
	}
	if syncManifest {
		s.flushManifest()
	}
	return e, true, nil
}

// writeArtifact writes data to key's temp file, renames it over the
// artifact and takes the simulated-disk throttle.
func (s *Store) writeArtifact(c clock.Clock, key string, data []byte) error {
	tmp := s.path(key) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: write %q: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		return fmt.Errorf("store: publish %q: %w", key, err)
	}
	s.throttle(c, int64(len(data)))
	return nil
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
	s.mu.Lock()
	if f, ok := s.flight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.val, c.Since(start), f.err
	}
	f := &flightCall{done: make(chan struct{})}
	s.flight[key] = f
	s.mu.Unlock()

	f.val, f.err = s.read(c, key)

	s.mu.Lock()
	delete(s.flight, key)
	s.mu.Unlock()
	close(f.done)
	return f.val, c.Since(start), f.err
}

// read performs the physical read for Load with the key's file claimed,
// so it cannot interleave with a Put or Delete of the same key.
func (s *Store) read(c clock.Clock, key string) (any, error) {
	e, ok := s.lockKey(key)
	defer s.unlockKey(key)
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
	e, ok := s.lockKey(key)
	defer s.unlockKey(key)
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
	_, ok := s.Entry(key)
	return ok
}

// Entry returns the metadata for key.
func (s *Store) Entry(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

// Delete removes the entry and its file. Deleting a missing key is a
// no-op; a file that cannot be removed still loses its entry.
func (s *Store) Delete(key string) error {
	_, ok, err := s.remove(key)
	if !ok {
		return nil
	}
	s.flushManifest()
	if err != nil {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// remove deletes key's entry, marking the key dirty, and then its file,
// reporting whether there was an entry and the error of a file that is
// there but could not be removed. It leaves the journal to the caller.
func (s *Store) remove(key string) (Entry, bool, error) {
	e, ok := s.lockKey(key)
	defer s.unlockKey(key)
	if !ok {
		return e, false, nil
	}
	s.mu.Lock()
	s.dropEntry(key)
	s.dirty[key] = struct{}{}
	s.mu.Unlock()
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return e, true, err
	}
	return e, true, nil
}

// Purge removes every entry for which keep returns false. Used to
// deprecate old results when operators change (paper §6.6: "HELIX purges
// any previous materialization of original operators prior to
// execution"). keep sees each key with its entry under mu: it must not
// call back into the store.
//
// No session purges a shared store: shared planning marks no operator
// original, so no run deprecates a stored result. Should anything else
// delete a shared artifact, a session that needed it computes the node
// again: between runs the planner sees no entry, and mid-run the failed
// load drops the entry and re-plans.
func (s *Store) Purge(keep func(key string, e Entry) bool) (err error) {
	s.mu.Lock()
	var doomed []string
	for k, e := range s.entries {
		if !keep(k, e) {
			doomed = append(doomed, k)
		}
	}
	s.mu.Unlock()
	removed := false
	for _, k := range doomed {
		_, ok, rmErr := s.remove(k)
		removed = removed || ok
		if rmErr != nil && err == nil {
			err = fmt.Errorf("store: purge %q: %w", k, rmErr)
		}
	}
	// The common case — most iterations deprecate no stored result —
	// leaves the manifest untouched.
	if removed {
		s.flushManifest()
	}
	return err
}

// UsedBytes reports the total size of stored entries.
func (s *Store) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// TenantBytes reports the total size of entries published under tenant.
func (s *Store) TenantBytes(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held[tenant]
}

// charged names the budget account a write under tenant is admitted
// against — the tenant label's in a shared store, the one account "" of a
// private store, whose budget covers every byte it holds whatever label
// an entry carries — and reports the bytes the account is charged with:
// those it holds and those of its admitted writes still in flight. The
// caller holds mu.
func (s *Store) charged(tenant string) (account string, bytes int64) {
	if !s.shared {
		return "", s.used + s.reserved[""]
	}
	return tenant, s.held[tenant] + s.reserved[tenant]
}

// putEntry records e in the table and the ledger, in place of the key's
// previous entry. The caller holds mu.
func (s *Store) putEntry(e Entry) {
	s.dropEntry(e.Key)
	s.entries[e.Key] = e
	s.used += e.Size
	s.held[e.Tenant] += e.Size
}

// dropEntry removes key's entry, if any, from the table and the ledger.
// The caller holds mu.
func (s *Store) dropEntry(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	s.used -= e.Size
	if s.held[e.Tenant] -= e.Size; s.held[e.Tenant] == 0 {
		delete(s.held, e.Tenant)
	}
}

// Len reports the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys returns all stored keys, sorted (for deterministic iteration).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.entries))
}

// snapshotEntries collects a point-in-time copy of the entry table,
// sorted by key.
func (s *Store) snapshotEntries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.SortedFunc(maps.Values(s.entries), func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
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
	s.mu.Lock()
	recs := make([]manifestRecord, 0, len(s.dirty))
	for _, k := range slices.Sorted(maps.Keys(s.dirty)) {
		if e, ok := s.entries[k]; ok {
			recs = append(recs, manifestRecord{Put: &e})
		} else {
			recs = append(recs, manifestRecord{Delete: k})
		}
	}
	clear(s.dirty)
	s.mu.Unlock()
	if len(recs) == 0 {
		return
	}
	s.journaled = true
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		payloads[i], _ = json.Marshal(rec) // strings and integers: always encodes
	}
	s.keepErr(s.journal.Append(payloads...))
}

// compactManifest writes the whole entry table as the base and removes
// the journal. Dirty keys are cleared first, not appended: the table
// already holds their changes, and a mutation landing after the clear
// marks its key again. The caller holds manifestMu. A mutation racing
// the snapshot (only another session on a shared store can) is in the
// base but not yet in the journal, so a crash between the rename and the
// removal would replay that key's older record over it: a missing entry
// or a failed load, which costs recomputation, never a wrong value.
func (s *Store) compactManifest() {
	s.mu.Lock()
	clear(s.dirty)
	s.mu.Unlock()
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

// lockKey claims key's file for a file operation — Put, Delete, load or
// Verify — waiting while another goroutine has it, and returns the key's
// entry, which stays as it is until unlockKey: every change to the table
// is made with the key claimed. mu is held only to wait and to mark the
// key busy, never across the file operation that follows.
func (s *Store) lockKey(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.busy[key] {
		s.keyFree.Wait()
	}
	s.busy[key] = true
	e, ok := s.entries[key]
	return e, ok
}

// unlockKey releases key's file and wakes the goroutines waiting to claim
// a key.
func (s *Store) unlockKey(key string) {
	s.mu.Lock()
	delete(s.busy, key)
	s.mu.Unlock()
	s.keyFree.Broadcast()
}
