package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"testing"
)

// TestFramesStopAtTheFirstBadFrame: Frames yields intact frames in order
// and reports the longest valid prefix, whether the input is cut inside
// a frame, has a flipped byte, or a frame is refused.
func TestFramesStopAtTheFirstBadFrame(t *testing.T) {
	payloads := [][]byte{[]byte(`{"a":1}`), nil, []byte("third")}
	var data []byte
	ends := []int{0}
	for _, p := range payloads {
		data = AppendFrame(data, p)
		ends = append(ends, len(data))
	}
	whole := func(off int) int { // frames wholly inside data[:off]
		k := 0
		for k+1 < len(ends) && ends[k+1] <= off {
			k++
		}
		return k
	}
	for off := 0; off <= len(data); off++ {
		var got [][]byte
		n := Frames(data[:off], func(p []byte) bool { got = append(got, p); return true })
		k := whole(off)
		if n != ends[k] || len(got) != k {
			t.Fatalf("cut at %d: %d frames, prefix %d; want %d, %d", off, len(got), n, k, ends[k])
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut at %d: frame %d = %q, want %q", off, i, got[i], payloads[i])
			}
		}
	}
	for off := ends[1]; off < ends[2]; off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 1
		if n := Frames(bad, func([]byte) bool { return true }); n != ends[1] {
			t.Fatalf("byte %d flipped: prefix %d, want %d", off, n, ends[1])
		}
	}
	if n := Frames(data, func(p []byte) bool { return len(p) > 0 }); n != ends[1] {
		t.Fatalf("refusing the second frame: prefix %d, want %d", n, ends[1])
	}
}

// journaledStore closes a store over three entries (the base), reopens
// it and applies five more synchronous mutations, each one journal
// record. It returns the directory, the base, the journal, the journal's
// length after each mutation and the table after each (index 0: the
// base's).
func journaledStore(t testing.TB) (dir string, base, journal []byte, ends []int, states [][]Entry) {
	t.Helper()
	dir = t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if _, err := s.Put(k, "node-"+k, payload{N: i}, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	states = append(states, s.snapshotEntries())
	for _, mutate := range []func() error{
		func() error { _, err := s.Put("d", "node-d", payload{N: 3, Rows: []string{"x"}}, 3); return err },
		func() error { return s.Delete("a") },
		func() error { _, err := s.Put("e", "node-e", payload{N: 4}, 4); return err },
		func() error { return s.Purge(func(k string, _ Entry) bool { return k != "b" }) },
		func() error { _, err := s.Put("a", "node-a2", payload{N: 5, Rows: []string{"y", "z"}}, 5); return err },
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, manifestJournalFile))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
		states = append(states, s.snapshotEntries())
	}
	if base, err = os.ReadFile(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatal(err)
	}
	if journal, err = os.ReadFile(filepath.Join(dir, manifestJournalFile)); err != nil {
		t.Fatal(err)
	}
	return dir, base, journal, ends, states
}

// reopenEntries opens a store on a directory holding only the given base
// and journal and returns its table.
func reopenEntries(t testing.TB, base, journal []byte) []Entry {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), base, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestJournalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a %d-byte journal: %v", len(journal), err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestJournalFile)); !os.IsNotExist(err) {
		t.Fatalf("Open left the journal uncompacted: %v", err)
	}
	return s.snapshotEntries()
}

// TestManifestJournalTornTail: a manifest journal cut at any byte of its
// last three records, or with one byte of its last record flipped,
// restores the table as it stood after the last intact record.
func TestManifestJournalTornTail(t *testing.T) {
	_, base, journal, ends, states := journaledStore(t)
	if got := reopenEntries(t, base, journal); !reflect.DeepEqual(got, states[len(states)-1]) {
		t.Fatalf("whole journal restores %+v, want %+v", got, states[len(states)-1])
	}
	intact := func(off int) int {
		k := 0
		for k < len(ends) && ends[k] <= off {
			k++
		}
		return k
	}
	last := len(ends) - 1
	for off := ends[last-3]; off < len(journal); off++ {
		if got, want := reopenEntries(t, base, journal[:off]), states[intact(off)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("journal cut at %d of %d: %+v, want %+v", off, len(journal), got, want)
		}
	}
	for off := ends[last-1]; off < len(journal); off++ {
		flipped := append([]byte(nil), journal...)
		flipped[off] ^= 0x5a
		if got := reopenEntries(t, base, flipped); !reflect.DeepEqual(got, states[last]) {
			t.Fatalf("byte %d flipped: %+v, want %+v", off, got, states[last])
		}
	}
}

// TestManifestJournalReplayOverCompactedBase: a journal replayed over the
// base it was just compacted into changes nothing.
func TestManifestJournalReplayOverCompactedBase(t *testing.T) {
	dir, _, journal, _, states := journaledStore(t)
	s, err := Open(dir) // compacts the journal into the base
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := reopenEntries(t, base, journal); !reflect.DeepEqual(got, states[len(states)-1]) {
		t.Fatalf("replay over the compacted base = %+v, want %+v", got, states[len(states)-1])
	}
}

// TestManifestJournalErrorKeptForClose: a journal that cannot be appended
// to fails no Put; Close returns the error (errors.Is reaches the system
// call's) and its compaction still records the entry.
func TestManifestJournalErrorKeptForClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, manifestJournalFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", "n", payload{N: 1}, 0); err != nil {
		t.Fatalf("Put failed on a journal error: %v", err)
	}
	if err := s.Close(); !errors.Is(err, syscall.EISDIR) {
		t.Fatalf("Close = %v, want an error wrapping EISDIR", err)
	}
	if got, err := ReadManifest(dir); err != nil || len(got) != 1 || got[0].Key != "k" {
		t.Fatalf("manifest after Close = %+v, %v; want the one entry", got, err)
	}
}

// crashLeftovers are files a crash mid-write leaves in a store directory.
var crashLeftovers = []string{"k1.gob.tmp", "manifest.json.tmp", "manifest.json.tmp-123"}

func plantLeftovers(t *testing.T, dir string) {
	t.Helper()
	for _, name := range append([]string{"keep.gob"}, crashLeftovers...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenSweepsCrashLeftovers: a private store removes the temp files
// of interrupted artifact and manifest writes, and nothing else.
func TestOpenSweepsCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	plantLeftovers(t, dir)
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range crashLeftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived Open: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.gob")); err != nil {
		t.Errorf("Open removed an artifact: %v", err)
	}
}

// TestOpenSharedKeepsTempFiles: a shared store's temp files may belong to
// another process mid-publish, so OpenShared leaves them.
func TestOpenSharedKeepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	plantLeftovers(t, dir)
	sh, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, name := range crashLeftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("OpenShared removed %s: %v", name, err)
		}
	}
}

// FuzzManifestJournal: hostile bytes as the journal behind a valid base.
// Open never fails and holds what replaying the journal's longest intact
// prefix gives; the replay allocates no more than a fixed multiple of
// the input.
func FuzzManifestJournal(f *testing.F) {
	_, base, journal, ends, _ := journaledStore(f)
	f.Add(journal)
	f.Add(journal[:ends[1]])
	f.Add(journal[:ends[0]+5])
	// Every put above carries a checksum; a journal may also hold an entry
	// written before artifacts had one, beside one whose checksum is 0.
	zero := uint32(0)
	mixed := journal
	for _, e := range []Entry{
		{Key: "legacy", Name: "node-legacy", Size: 7, Iteration: 6},
		{Key: "zero", Name: "node-zero", Size: 9, Iteration: 7, CRC: &zero},
	} {
		payload, err := json.Marshal(manifestRecord{Put: &e})
		if err != nil {
			f.Fatal(err)
		}
		mixed = AppendFrame(mixed, payload)
	}
	f.Add(mixed)
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), base, 0o644); err != nil {
		f.Fatal(err)
	}
	baseEntries, err := ReadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	table := func() map[string]Entry {
		m := make(map[string]Entry, len(baseEntries))
		for _, e := range baseEntries {
			m[e.Key] = e
		}
		return m
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := table()
		var n int
		if grown := allocatedBy(func() { n = replayManifest(want, data) }); grown > allocationBound(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d", len(data), grown)
		}
		prefix := table()
		if m := replayManifest(prefix, data[:n]); m != n || !reflect.DeepEqual(prefix, want) {
			t.Fatalf("the intact prefix (%d of %d bytes) replays to %v, the whole input to %v", n, len(data), prefix, want)
		}
		got := reopenEntries(t, base, data)
		if len(got) != len(want) {
			t.Fatalf("Open holds %d entries, the replay %d", len(got), len(want))
		}
		for _, e := range got {
			if w := want[e.Key]; !reflect.DeepEqual(e, w) {
				t.Fatalf("Open holds %+v, the replay %+v", e, w)
			}
		}
	})
}

// allocatedBy is the heap fn allocates, read with the world stopped so
// that nothing a previous input left in per-P caches is counted (the
// fuzz body's reopen allocates far more than the replay it checks).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzManifestBase: hostile bytes as manifest.json behind an empty
// journal. Open returns an error or a store that a second Open of the same
// directory finds with the same entries; it never panics, and reading the
// base allocates no more than allocationBound of its length.
func FuzzManifestBase(f *testing.F) {
	_, base, _, _, _ := journaledStore(f)
	f.Add(base)
	for _, seed := range []string{"", "null", "[]", "{}", `[{"key":"a","size":-1},{"key":"a","size":3,"crc":0}]`, `[{"key":"../x","iteration":-9}]`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestJournalFile), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if grown := allocatedBy(func() { readManifest(dir) }); grown > allocationBound(len(data)) {
			t.Fatalf("reading a %d-byte base allocated %d", len(data), grown)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		first := s.snapshotEntries()
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("the first Open succeeded, the second failed: %v", err)
		}
		if second := again.snapshotEntries(); !reflect.DeepEqual(first, second) {
			t.Fatalf("Open found %+v, a reopen %+v", first, second)
		}
	})
}
