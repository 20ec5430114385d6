package helix

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"

	"helix/internal/core"
	"helix/internal/store"
)

// journalWorkflow is a small, fast workflow whose shape changes with v:
// the learner's parameters follow v, and an odd v adds a second
// extractor, so successive versions exercise both kinds of snapshot
// delta (changed nodes only; a changed node order).
func journalWorkflow(v int) *Workflow {
	wf := New("journal")
	src := wf.Source("data", "v1", func(context.Context, []Value) (Value, error) {
		return []string{"a", "b", "c"}, nil
	})
	feats := []*Op{wf.Extractor("len", "len", func(_ context.Context, in []Value) (Value, error) {
		return len(in[0].([]string)), nil
	}, src)}
	if v%2 == 1 {
		feats = append(feats, wf.Extractor("first", "first", func(_ context.Context, in []Value) (Value, error) {
			return len(in[0].([]string)[0]), nil
		}, src))
	}
	model := wf.Learner("model", fmt.Sprintf("reg=%d", v), func(_ context.Context, in []Value) (Value, error) {
		sum := v
		for _, x := range in {
			sum += x.(int)
		}
		return sum, nil
	}, feats...)
	wf.Reducer("out", "id", func(_ context.Context, in []Value) (Value, error) {
		return in[0].(int) * 2, nil
	}, model).IsOutput()
	return wf
}

// persistedView is what a session restored from disk: its iteration,
// its history (as JSON, which is how it travels) and its snapshot.
type persistedView struct {
	iter     int
	history  string
	snapshot core.Snapshot
}

func viewOf(t testing.TB, s *Session) persistedView {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	h, err := json.Marshal(s.history)
	if err != nil {
		t.Fatal(err)
	}
	v := persistedView{iter: s.iter, history: string(h)}
	if s.prev != nil {
		v.snapshot = s.prev.Snapshot()
	}
	return v
}

// reopenView opens a session on a directory holding only base and
// journal, and reports what it restored.
func reopenView(t testing.TB, base, journal []byte) persistedView {
	t.Helper()
	dir := t.TempDir()
	if base != nil {
		if err := os.WriteFile(filepath.Join(dir, sessionStateFile), base, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, sessionJournalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a %d-byte journal: %v", len(journal), err)
	}
	defer s.Close()
	return viewOf(t, s)
}

// journaledSession runs two versions, closes (a base at iteration 2),
// reopens and runs four more without closing. It returns the base, the
// journal, the journal's length after each of those four runs, and the
// state after each (index 0: the base's).
func journaledSession(t testing.TB) (base, journal []byte, ends []int, states []persistedView) {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		if _, err := s.Run(ctx, journalWorkflow(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	states = append(states, viewOf(t, s))
	for _, v := range []int{2, 3, 3, 4} {
		if _, err := s.Run(ctx, journalWorkflow(v)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, sessionJournalFile))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
		states = append(states, viewOf(t, s))
	}
	if base, err = os.ReadFile(filepath.Join(dir, sessionStateFile)); err != nil {
		t.Fatal(err)
	}
	if journal, err = os.ReadFile(filepath.Join(dir, sessionJournalFile)); err != nil {
		t.Fatal(err)
	}
	return base, journal, ends, states
}

// TestSessionJournalTornTail: a journal cut at any byte of its last three
// records, or with one byte of its last record flipped, restores exactly
// the state after the last intact record — a state the session really
// had, never a mixture.
func TestSessionJournalTornTail(t *testing.T) {
	base, journal, ends, states := journaledSession(t)
	if len(ends) != 4 || ends[3] != len(journal) {
		t.Fatalf("journal ends %v, length %d", ends, len(journal))
	}
	if got := reopenView(t, base, journal); !reflect.DeepEqual(got, states[4]) {
		t.Fatalf("full journal restores %+v, want %+v", got, states[4])
	}
	intact := func(off int) int { // records wholly inside journal[:off]
		k := 0
		for k < len(ends) && ends[k] <= off {
			k++
		}
		return k
	}
	for off := ends[0]; off < len(journal); off++ {
		if got, want := reopenView(t, base, journal[:off]), states[intact(off)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("journal cut at %d of %d: restored iteration %d, want %d (%+v vs %+v)",
				off, len(journal), got.iter, want.iter, got, want)
		}
	}
	// A record missing from the middle (its append failed, the next did
	// not) ends the replay before the gap: later deltas do not fit.
	gap := append(append([]byte(nil), journal[:ends[1]]...), journal[ends[2]:]...)
	if got := reopenView(t, base, gap); !reflect.DeepEqual(got, states[2]) {
		t.Fatalf("journal with its third record missing: restored iteration %d, want %d", got.iter, states[2].iter)
	}
	for off := ends[2]; off < len(journal); off++ {
		flipped := append([]byte(nil), journal...)
		flipped[off] ^= 0x5a
		if got := reopenView(t, base, flipped); !reflect.DeepEqual(got, states[3]) {
			t.Fatalf("byte %d flipped: restored iteration %d, want %d", off, got.iter, states[3].iter)
		}
	}
}

// TestSessionJournalReplayOverCompactedBase: a crash between a
// compaction's rename and its removal of the journal leaves a journal
// the base already covers; replaying it changes nothing and duplicates
// no history record.
func TestSessionJournalReplayOverCompactedBase(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if _, err := s.Run(context.Background(), journalWorkflow(v)); err != nil {
			t.Fatal(err)
		}
	}
	want := viewOf(t, s)
	journal, err := os.ReadFile(filepath.Join(dir, sessionJournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, sessionJournalFile)); !os.IsNotExist(err) {
		t.Fatalf("Close left the journal behind: %v", err)
	}
	base, err := os.ReadFile(filepath.Join(dir, sessionStateFile))
	if err != nil {
		t.Fatal(err)
	}
	got := reopenView(t, base, journal)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay over the compacted base = %+v, want %+v", got, want)
	}
	var hist []IterationRecord
	if err := json.Unmarshal([]byte(got.history), &hist); err != nil || len(hist) != 3 {
		t.Fatalf("history after replay: %d records (%v), want 3", len(hist), err)
	}
}

// TestSessionRunNeitherRewritesNorSyncsTheBase: a Run appends one record
// and leaves session.json alone; the base changes only at Close.
func TestSessionRunNeitherRewritesNorSyncsTheBase(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if _, err := s.Run(context.Background(), journalWorkflow(v)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, sessionStateFile)); !os.IsNotExist(err) {
			t.Fatalf("run %d wrote the base: %v", v, err)
		}
		journal, err := os.ReadFile(filepath.Join(dir, sessionJournalFile))
		if err != nil {
			t.Fatal(err)
		}
		if n := store.Frames(journal, func([]byte) bool { return true }); n != len(journal) {
			t.Fatalf("run %d: journal has %d intact bytes of %d", v, n, len(journal))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, sessionStateFile)); err != nil {
		t.Fatalf("Close wrote no base: %v", err)
	}
}

// TestSessionPersistErrorReachesClose: a journal that cannot be appended
// to (its path is a directory) fails no Run; Close returns the error,
// wrapped so errors.Is reaches the system call's, and its compaction
// still persists the state.
func TestSessionPersistErrorReachesClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, sessionJournalFile), 0o755); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		if _, err := s.Run(context.Background(), journalWorkflow(v)); err != nil {
			t.Fatalf("Run %d failed on a journal error: %v", v, err)
		}
	}
	err = s.Close()
	if !errors.Is(err, syscall.EISDIR) {
		t.Fatalf("Close = %v, want an error wrapping EISDIR", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Iteration() != 2 {
		t.Fatalf("reopened at iteration %d, want 2 (Close's compaction)", s2.Iteration())
	}
}

// TestDiffSnapshotRoundTrip: the delta between any two snapshots applies
// back to the second, and lists only what changed.
func TestDiffSnapshotRoundTrip(t *testing.T) {
	node := func(name, sig string, c int) core.NodeSnapshot {
		return core.NodeSnapshot{Name: name, ChainSignature: sig, Metrics: core.Metrics{Size: int64(c)}}
	}
	a := []core.NodeSnapshot{node("x", "1", 1), node("y", "2", 2), node("z", "3", 3)}
	cases := map[string][]core.NodeSnapshot{
		"same":      a,
		"metrics":   {node("x", "1", 1), node("y", "2", 9), node("z", "3", 3)},
		"signature": {node("x", "1", 1), node("y", "7", 2), node("z", "3", 3)},
		"added":     {node("x", "1", 1), node("w", "4", 4), node("y", "2", 2), node("z", "3", 3)},
		"dropped":   {node("x", "1", 1), node("z", "3", 3)},
		"reordered": {node("z", "3", 3), node("x", "1", 1), node("y", "2", 2)},
		"empty":     {},
	}
	for name, b := range cases {
		d := diffSnapshot(a, b)
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back snapshotDelta
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		old := append([]core.NodeSnapshot(nil), a...)
		pos := map[string]int{"x": 0, "y": 1, "z": 2}
		got, _, ok := back.apply(old, pos)
		if !ok || !reflect.DeepEqual(append([]core.NodeSnapshot{}, got...), append([]core.NodeSnapshot{}, b...)) {
			t.Errorf("%s: apply(diff) = %v, %v; want %v", name, got, ok, b)
		}
		if name == "same" && (len(d.Set) != 0 || d.Order != nil) {
			t.Errorf("no change still records %s", data)
		}
		if (name == "metrics" || name == "signature") && (len(d.Set) != 1 || d.Order != nil) {
			t.Errorf("%s: one changed node records %s", name, data)
		}
	}
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

// FuzzSessionJournal: hostile bytes as the journal behind a valid base.
// Open never fails, restores what replaying the journal's longest intact
// prefix gives (the replay of any longer input adds nothing to it), and
// the replay allocates no more than a fixed multiple of the input beside
// the base's own copy.
func FuzzSessionJournal(f *testing.F) {
	base, journal, ends, _ := journaledSession(f)
	f.Add(journal)
	f.Add(journal[:ends[1]])
	f.Add(journal[:ends[0]+9])
	var st sessionState
	if err := json.Unmarshal(base, &st); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want sessionState
		var n int
		if grown := allocatedBy(func() { want, n = replayState(st, data) }); grown > 512*uint64(len(data))+256<<10 {
			t.Fatalf("replaying %d bytes allocated %d", len(data), grown)
		}
		prefix, m := replayState(st, data[:n])
		if m != n || !reflect.DeepEqual(prefix, want) {
			t.Fatalf("the intact prefix (%d of %d bytes) replays to iteration %d, the whole input to %d", n, len(data), prefix.Iteration, want.Iteration)
		}
		hist, err := json.Marshal(want.History)
		if err != nil {
			t.Fatal(err)
		}
		wantView := persistedView{iter: want.Iteration, history: string(hist), snapshot: core.FromSnapshot(want.Snapshot).Snapshot()}
		if got := reopenView(t, base, data); !reflect.DeepEqual(got, wantView) {
			t.Fatalf("Open restored iteration %d, the replay %d (%+v vs %+v)", got.iter, wantView.iter, got, wantView)
		}
	})
}

// TestGarbageStatisticsReadAsUnknown: statistics enter planning from the
// session state (base and journal replay) and from the manifest's entry
// sizes. A directory whose CRC-valid journal records carry garbage there —
// negative times and sizes, cost estimators with a non-positive weight —
// must open and run as a fresh session does, and no plan may price a node
// at a negative or non-finite cost (a load may be +Inf: nothing to load).
func TestGarbageStatisticsReadAsUnknown(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, journalWorkflow(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var st sessionState
	data, err := os.ReadFile(filepath.Join(dir, sessionStateFile))
	if err != nil || json.Unmarshal(data, &st) != nil {
		t.Fatalf("read base: %v", err)
	}
	nodes := st.Snapshot.Nodes
	for i := range nodes {
		nodes[i].Metrics = core.Metrics{
			Compute: -time.Second, Load: -time.Second, Size: -1, Known: true,
			ComputeStat: core.CostStat{Mean: 2, M2: 1, Weight: -1},
			// 1 + 0.6·w = 0: the next observation would divide by zero.
			LoadStat: core.CostStat{Mean: -3, Weight: -1 / 0.6},
		}
	}
	rec, err := json.Marshal(sessionRecord{
		Iteration: st.Iteration + 1,
		Record:    IterationRecord{Iteration: st.Iteration, WorkflowName: "journal"},
		Delta:     snapshotDelta{Set: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, filepath.Join(dir, sessionJournalFile), rec)
	entries, err := store.ReadManifest(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("manifest: %d entries, %v", len(entries), err)
	}
	var puts [][]byte
	for _, e := range entries {
		e.Size = -1 << 40
		b, err := json.Marshal(map[string]*store.Entry{"put": &e})
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, b)
	}
	appendRecords(t, filepath.Join(dir, "manifest.journal"), puts...)

	garbage, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if got := garbage.Iteration(); got != st.Iteration+1 {
		t.Fatalf("the garbage record was not replayed: iteration %d, want %d", got, st.Iteration+1)
	}
	fresh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, v := range []int{0, 0, 1, 2, 2} {
		want, err := fresh.Run(ctx, journalWorkflow(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := garbage.Run(ctx, journalWorkflow(v))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("version %d: outputs %v, fresh session %v", v, got.Values, want.Values)
		}
		for _, np := range got.Plan.Nodes {
			c := np.Costs
			if math.IsNaN(c.Compute) || math.IsInf(c.Compute, 0) || c.Compute < 0 || math.IsNaN(c.Load) || c.Load < 0 {
				t.Fatalf("version %d: %s priced at compute %v, load %v", v, np.Node.Name, c.Compute, c.Load)
			}
		}
	}
}

// appendRecords appends framed, CRC-checked records to the journal at path.
func appendRecords(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	j := store.NewJournal(path)
	if err := j.Append(payloads...); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSessionBase: hostile bytes as session.json behind an empty journal.
// Open returns an error or a session that a reopen after Close finds in
// the same state; it never panics, and decoding the base and rebuilding
// its snapshot allocate no more than the store's allocation bound for a
// decode of that length (512 bytes per input byte plus 64 KiB).
func FuzzSessionBase(f *testing.F) {
	base, _, _, _ := journaledSession(f)
	f.Add(base)
	for _, seed := range []string{"", "null", "{}", `{"iteration":-3}`, `{"iteration":2,"snapshot":{"nodes":[{"name":"a"},{"name":"a","chain_signature":"x","metrics":{"compute":-1,"known":true}}]}}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		grown := allocatedBy(func() {
			var st sessionState
			if json.Unmarshal(data, &st) == nil {
				core.FromSnapshot(st.Snapshot)
			}
		})
		if grown > 512*uint64(len(data))+64<<10 {
			t.Fatalf("decoding a %d-byte base allocated %d", len(data), grown)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, sessionStateFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sessionJournalFile), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		first := viewOf(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("the first Open succeeded, the reopen failed: %v", err)
		}
		defer again.Close()
		if second := viewOf(t, again); !reflect.DeepEqual(first, second) {
			t.Fatalf("Open restored %+v, the reopen %+v", first, second)
		}
	})
}
