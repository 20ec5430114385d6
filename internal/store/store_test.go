package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"helix/internal/clock"
)

type payload struct {
	Rows []string
	N    int
}

func init() {
	RegisterValueType(payload{})
	RegisterValueType([]float64(nil))
	RegisterValueType(map[string]int(nil))
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	want := payload{Rows: []string{"a", "b"}, N: 7}
	if _, err := s.Put("k1", "rows", want, 0); err != nil {
		t.Fatal(err)
	}
	got, dur, err := s.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("load duration not measured")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := open(t)
	if _, _, err := s.Get("nope"); err == nil {
		t.Fatal("expected error for missing key")
	}
}

func TestHasAndEntry(t *testing.T) {
	s := open(t)
	if s.Has("k") {
		t.Fatal("Has on empty store")
	}
	e, err := s.Put("k", "node", payload{N: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("k") {
		t.Fatal("Has after Put")
	}
	got, ok := s.Entry("k")
	if !ok || got.Iteration != 3 || got.Size != e.Size || got.Name != "node" {
		t.Fatalf("Entry = %+v, %v", got, ok)
	}
}

func TestDelete(t *testing.T) {
	s := open(t)
	if _, err := s.Put("k", "n", payload{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil || s.UsedBytes() != 0 {
		t.Fatalf("Delete: %v, %d B still used; want nil, 0 B", err, s.UsedBytes())
	}
	if s.Has("k") {
		t.Fatal("entry survived delete")
	}
	if err := s.Delete("k"); err != nil || s.UsedBytes() != 0 {
		t.Fatal("deleting missing key should be a no-op")
	}
}

func TestPurgeKeepsSelected(t *testing.T) {
	s := open(t)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.Put(k, k, payload{N: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	b, _ := s.Entry("b")
	if err := s.Purge(func(k string, _ Entry) bool { return k == "b" }); err != nil {
		t.Fatal(err)
	}
	if s.UsedBytes() != b.Size {
		t.Fatalf("after purge: %d B used, want b's %d B", s.UsedBytes(), b.Size)
	}
	if s.Len() != 1 || !s.Has("b") {
		t.Fatalf("after purge: len=%d has(b)=%v", s.Len(), s.Has("b"))
	}
}

func TestUsedBytesAndKeys(t *testing.T) {
	s := open(t)
	if s.UsedBytes() != 0 {
		t.Fatal("fresh store has nonzero usage")
	}
	s.Put("z", "z", payload{Rows: []string{"xxxx"}}, 0)
	s.Put("a", "a", payload{Rows: []string{"yyyy"}}, 0)
	if s.UsedBytes() <= 0 {
		t.Fatal("usage not tracked")
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "z" {
		t.Fatalf("Keys = %v, want sorted [a z]", keys)
	}
}

func TestManifestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("k", "n", payload{N: 42}, 5); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s2.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got.(payload).N != 42 {
		t.Fatalf("reopened value = %+v", got)
	}
	e, _ := s2.Entry("k")
	if e.Iteration != 5 {
		t.Fatalf("iteration lost on reopen: %d", e.Iteration)
	}
}

// TestManifestRoundTrip: the journal records every Put before Close,
// Close compacts it into a manifest of compact JSON sorted by key, and
// Open reads both that and the indented form stores wrote before — every
// entry comes back field for field.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"zeta", "alpha", "mid"} {
		if _, err := s1.Put(k, "node-"+k, payload{N: i, Rows: []string{k}}, i+1); err != nil {
			t.Fatal(err)
		}
	}
	want := s1.snapshotEntries()
	if len(want) != 3 || want[0].Key != "alpha" || want[1].Key != "mid" || want[2].Key != "zeta" {
		t.Fatalf("snapshot not sorted by key: %+v", want)
	}
	if got, err := ReadManifest(dir); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest before Close = %+v, %v; want %+v", got, err, want)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestJournalFile)); !os.IsNotExist(err) {
		t.Fatalf("journal survived Close's compaction: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsAny(data, "\n ") {
		t.Fatalf("manifest is not compact JSON: %q", data)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.snapshotEntries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened compact manifest = %+v, want %+v", got, want)
	}

	// A manifest in the indented form earlier versions wrote, by hand.
	legacy := t.TempDir()
	const indented = `[
  {
    "key": "k1",
    "name": "rows",
    "size": 1234,
    "write_time": 5000000,
    "iteration": 7
  },
  {
    "key": "k2",
    "name": "model",
    "size": 99,
    "write_time": 1,
    "iteration": 8,
    "tenant": "alice",
    "refs": 2
  }
]`
	if err := os.WriteFile(filepath.Join(legacy, "manifest.json"), []byte(indented), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(legacy)
	if err != nil {
		t.Fatal(err)
	}
	// The refs field older builds wrote (a count of live sessions' pins)
	// is ignored on read.
	wantLegacy := []Entry{
		{Key: "k1", Name: "rows", Size: 1234, WriteTime: 5 * time.Millisecond, Iteration: 7},
		{Key: "k2", Name: "model", Size: 99, WriteTime: 1, Iteration: 8, Tenant: "alice"},
	}
	if got := s3.snapshotEntries(); !reflect.DeepEqual(got, wantLegacy) {
		t.Fatalf("reopened indented manifest = %+v, want %+v", got, wantLegacy)
	}
}

// TestPurgeNothingLeavesManifestAlone: a purge that removes no entry —
// what most iterations' purges do — appends nothing to the journal.
func TestPurgeNothingLeavesManifestAlone(t *testing.T) {
	s := open(t)
	if _, err := s.Put("k", "n", payload{N: 1}, 0); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(s.Dir(), manifestJournalFile)
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	used := s.UsedBytes()
	if err := s.Purge(func(string, Entry) bool { return true }); err != nil || s.UsedBytes() != used {
		t.Fatalf("Purge = %v, %d B used; want nil, %d B", err, s.UsedBytes(), used)
	}
	if got, _ := os.ReadFile(journal); !bytes.Equal(got, before) {
		t.Fatalf("no-op purge appended to the journal: %d → %d bytes", len(before), len(got))
	}
	// One that does remove something still records the new table.
	if err := s.Purge(func(string, Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(s.Dir()); err != nil || len(got) != 0 {
		t.Fatalf("manifest after purging everything = %+v, %v; want an empty table", got, err)
	}
}

func TestCorruptedFileReturnsError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", "n", payload{N: 1}, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk (failure injection: engine must fall back
	// to recomputation when a load fails).
	if err := os.WriteFile(filepath.Join(dir, "k.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("k"); err == nil {
		t.Fatal("expected decode error for corrupted file")
	}
}

// TestSimulatedDiskSlowsIO: the simulated disk bills a write and a read
// exactly bytes ÷ throughput on the caller's clock — a model clock, so
// the check is an equality, not a lower bound on host time.
func TestSimulatedDiskSlowsIO(t *testing.T) {
	s := open(t)
	data := make([]float64, 1<<14) // ≈128 KiB encoded
	for i := range data {
		data[i] = 0.1 + float64(i)
	}
	s.DiskBytesPerSec = 1 << 20
	m := new(clock.Model)
	out := s.Write(WriteRequest{Key: "k", Name: "n", Value: data, Clock: m})
	if !out.Written {
		t.Fatalf("write failed: %+v", out)
	}
	want := time.Duration(float64(out.Entry.Size) / s.DiskBytesPerSec * float64(time.Second))
	if want < 100*time.Millisecond {
		t.Fatalf("payload of %d bytes throttles only %v: not a test of the throttle", out.Entry.Size, want)
	}
	if got := m.Elapsed(); got != want {
		t.Fatalf("write moved the model clock %v, want bytes ÷ throughput = %v", got, want)
	}
	if out.Entry.WriteTime != want || out.Secs != want.Seconds() {
		t.Fatalf("write timed %v / %.6fs, want %v", out.Entry.WriteTime, out.Secs, want)
	}
	if _, dur, err := s.Load(m, "k"); err != nil || dur != want {
		t.Fatalf("read measured %v (err %v), want %v", dur, err, want)
	}
	if got := m.Elapsed(); got != 2*want {
		t.Fatalf("write + read moved the model clock %v, want %v", got, 2*want)
	}
}

func TestEstimateLoadMonotonic(t *testing.T) {
	s := open(t)
	s.DiskBytesPerSec = 170 << 20 // the paper's HDD
	small := s.EstimateLoad(1 << 10)
	big := s.EstimateLoad(1 << 30)
	if big <= small {
		t.Fatalf("EstimateLoad not monotonic: %v vs %v", small, big)
	}
	// 1 GiB at 170 MiB/s ≈ 6s.
	if big < 5*time.Second || big > 8*time.Second {
		t.Fatalf("EstimateLoad(1GiB) = %v, want ≈6s", big)
	}
}

// TestQuickRoundTrip: arbitrary string-keyed maps survive the store.
func TestQuickRoundTrip(t *testing.T) {
	s := open(t)
	i := 0
	f := func(m map[string]int) bool {
		i++
		key := string(rune('a'+i%26)) + "-roundtrip"
		if m == nil {
			m = map[string]int{}
		}
		if _, err := s.Put(key, "m", m, 0); err != nil {
			return false
		}
		got, _, err := s.Get(key)
		if err != nil {
			return false
		}
		gm := got.(map[string]int)
		if len(gm) != len(m) {
			return false
		}
		for k, v := range m {
			if gm[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
