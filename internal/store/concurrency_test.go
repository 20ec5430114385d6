package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentStress hammers every mutating and reading operation from
// many goroutines over a deliberately overlapping key space, then checks
// the store's core consistency invariants once quiescent:
//
//  1. every key the entry table reports is actually loadable (an entry
//     never outlives or precedes its blob), and
//  2. the on-disk manifest agrees exactly with the in-memory table (a
//     fresh Open sees the same entries).
//
// Run under -race this doubles as the data-race check for the sharded
// store and the write-behind pool.
func TestConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		opsPer  = 150
		keySpan = 24 // small: force overlapping-key contention
	)
	keys := make([]string, keySpan)
	for i := range keys {
		keys[i] = fmt.Sprintf("stress-%02d", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPer; i++ {
				k := keys[rng.Intn(keySpan)]
				switch rng.Intn(10) {
				case 0, 1:
					if _, err := s.Put(k, "n", payload{N: w*1000 + i}, i); err != nil {
						t.Errorf("Put(%s): %v", k, err)
					}
				case 2, 3:
					data, _ := Encode(payload{N: i})
					if _, err := s.PutBytes(k, "n", data, i); err != nil {
						t.Errorf("PutBytes(%s): %v", k, err)
					}
				case 4:
					s.PutAsync(WriteRequest{Key: k, Name: "n", Iteration: i, Value: payload{N: i}})
				case 5, 6:
					// Concurrent Get may legitimately race a Delete; only
					// crashes and inconsistencies count as failures.
					_, _, _ = s.Get(k)
				case 7:
					if _, err := s.Delete(k); err != nil {
						t.Errorf("Delete(%s): %v", k, err)
					}
				case 8:
					s.Has(k)
					s.Entry(k)
					s.UsedBytes()
				case 9:
					victim := keys[rng.Intn(keySpan)]
					if _, err := s.Purge(func(key string, _ Entry) bool { return key != victim }); err != nil {
						t.Errorf("Purge: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	for _, k := range s.Keys() {
		if _, _, err := s.Get(k); err != nil {
			t.Errorf("entry %q not loadable after quiescence: %v", k, err)
		}
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, want := reopened.Keys(), s.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("manifest inconsistent: reopened keys %v, live keys %v", got, want)
	}
	for _, k := range s.Keys() {
		live, _ := s.Entry(k)
		persisted, ok := reopened.Entry(k)
		if !ok || persisted.Size != live.Size || persisted.Iteration != live.Iteration {
			t.Errorf("manifest entry %q diverged: live %+v persisted %+v", k, live, persisted)
		}
	}
}

// TestConcurrentDistinctPutsLoseNothing drives sync and async writes to
// disjoint keys from many goroutines and asserts that every single one
// survives — in the live table, on disk, and in the reopened manifest.
func TestConcurrentDistinctPutsLoseNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k-%03d", i)
			if i%2 == 0 {
				if _, err := s.Put(key, "n", payload{N: i}, i); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
			} else {
				s.PutAsync(WriteRequest{Key: key, Name: "n", Iteration: i, Value: payload{N: i}})
			}
		}(i)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := s.Len(); got != n {
		t.Fatalf("lost entries: Len = %d, want %d", got, n)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Len(); got != n {
		t.Fatalf("manifest lost entries: reopened Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, _, err := reopened.Get(fmt.Sprintf("k-%03d", i))
		if err != nil {
			t.Fatalf("Get(k-%03d): %v", i, err)
		}
		if v.(payload).N != i {
			t.Fatalf("k-%03d holds %+v", i, v)
		}
	}
}

// TestPutAsyncDecideAndOutcome covers the deferred policy check: Decide
// sees the encoded size, a false verdict drops the write, and OnDone
// reports the outcome either way.
func TestPutAsyncDecideAndOutcome(t *testing.T) {
	s := open(t)
	outcomes := make(chan WriteOutcome, 2)
	s.PutAsync(WriteRequest{
		Key: "accepted", Name: "n", Value: payload{N: 1},
		Decide: func(size int64) bool {
			if size <= 0 {
				t.Errorf("Decide saw size %d", size)
			}
			return true
		},
		OnDone: func(out WriteOutcome) { outcomes <- out },
	})
	s.PutAsync(WriteRequest{
		Key: "declined", Name: "n", Value: payload{N: 2},
		Decide: func(int64) bool { return false },
		OnDone: func(out WriteOutcome) { outcomes <- out },
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out := <-outcomes
		if out.Err != nil {
			t.Fatalf("outcome error: %v", out.Err)
		}
		if out.Written && out.Entry.Key != "accepted" {
			t.Fatalf("unexpected write: %+v", out.Entry)
		}
	}
	if !s.Has("accepted") || s.Has("declined") {
		t.Fatalf("store state: accepted=%v declined=%v", s.Has("accepted"), s.Has("declined"))
	}
}

// TestFlushIsBarrier asserts the core Flush contract: once Flush returns,
// every previously enqueued write is visible in the table, durable in the
// manifest, and its OnDone has finished (no extra synchronization needed
// to read what the callback wrote).
func TestFlushIsBarrier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int32
	const n = 50
	for i := 0; i < n; i++ {
		s.PutAsync(WriteRequest{
			Key: fmt.Sprintf("b-%02d", i), Name: "n", Iteration: i,
			Value:  payload{N: i},
			OnDone: func(WriteOutcome) { done.Add(1) },
		})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != n {
		t.Fatalf("Flush returned before all callbacks: %d/%d", got, n)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Flush returned with %d/%d entries visible", got, n)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Len(); got != n {
		t.Fatalf("manifest behind after Flush: %d/%d", got, n)
	}
}

// TestSingleFlightGet issues many concurrent Gets of one slow key and
// checks they all succeed with the shared decoded value. With the
// simulated disk each physical read costs ~40ms; single-flighting keeps
// the elapsed time near one read instead of one per caller.
func TestSingleFlightGet(t *testing.T) {
	s := open(t)
	data := make([]float64, 1<<13)
	for i := range data {
		data[i] = float64(i) + 0.5
	}
	if _, err := s.Put("hot", "n", data, 0); err != nil {
		t.Fatal(err)
	}
	s.DiskBytesPerSec = 1 << 21 // ~32ms per physical read of this payload
	const readers = 16
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.Get("hot")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if got := v.([]float64); len(got) != len(data) || got[7] != data[7] {
				t.Error("shared value corrupted")
			}
		}()
	}
	wg.Wait()
	// 16 serialized reads would cost ≥ 512ms; allow generous slack for a
	// couple of non-overlapping flights plus scheduling noise.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("concurrent Gets not single-flighted: %v for %d readers", elapsed, readers)
	}
}

// TestCloseDegradesToSync: after Close, PutAsync must still work by
// writing synchronously on the caller's goroutine.
func TestCloseDegradesToSync(t *testing.T) {
	s := open(t)
	s.PutAsync(WriteRequest{Key: "before", Name: "n", Value: payload{N: 1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	called := false
	s.PutAsync(WriteRequest{
		Key: "after", Name: "n", Value: payload{N: 2},
		OnDone: func(out WriteOutcome) {
			called = true
			if !out.Written {
				t.Errorf("post-Close write failed: %+v", out)
			}
		},
	})
	// No Flush needed: post-Close PutAsync is synchronous.
	if !called {
		t.Fatal("post-Close PutAsync did not run inline")
	}
	if !s.Has("before") || !s.Has("after") {
		t.Fatalf("entries missing: before=%v after=%v", s.Has("before"), s.Has("after"))
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close must be safe:", err)
	}
}
