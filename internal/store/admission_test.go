package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"helix/internal/clock"
)

// reservedBytes sums the store's unsettled admissions.
func reservedBytes(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, n := range s.reserved {
		total += n
	}
	return total
}

// TestAdmissionConcurrentPutAsyncUnderCap: budgeted write-behind requests
// of distinct keys, queued from many goroutines at once, never take
// their account past its cap — not at any landing, not after Flush — and
// the cap is spent exactly: ten 1 000 B writes fit a 10 000 B budget. On
// a private store and under one tenant of a shared store.
func TestAdmissionConcurrentPutAsyncUnderCap(t *testing.T) {
	const budget, size, writes = 10_000, 1_000, 64
	for _, tenant := range []string{"", "alice"} {
		s, err := openStore(t.TempDir(), tenant != "")
		if err != nil {
			t.Fatal(err)
		}
		var landed, over atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < writes; i += 8 {
					s.PutAsync(WriteRequest{
						Key: fmt.Sprint("k", i), Tenant: tenant, Data: make([]byte, size), Budget: budget,
						OnDone: func(out WriteOutcome) {
							if out.Written {
								landed.Add(1)
							}
							if held := s.TenantBytes(tenant); held > budget {
								over.Store(held)
							}
						},
					})
				}
			}()
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := over.Load(); got != 0 {
			t.Fatalf("tenant %q held %d B at a landing, against a %d B budget", tenant, got, budget)
		}
		if got := landed.Load(); got != budget/size || s.TenantBytes(tenant) != budget {
			t.Fatalf("tenant %q: %d writes landed, %d B stored; want %d and %d B", tenant, got, s.TenantBytes(tenant), budget/size, budget)
		}
		if got := reservedBytes(s); got != 0 {
			t.Fatalf("tenant %q: %d B still reserved after Flush", tenant, got)
		}
	}
}

// TestAdmissionSettlesEveryOutcome: after Flush no reservation is left,
// whatever became of a budgeted request — it landed, the budget declined
// it, an equivalent entry was there (both the request's early check and
// the write-once check under the key's claim), its value failed to
// encode, or its write failed. A write of exactly the budget's headroom
// then fits.
func TestAdmissionSettlesEveryOutcome(t *testing.T) {
	const budget = 4_000
	s, err := OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PutBytes("there", "there", make([]byte, 500), 0); err != nil {
		t.Fatal(err)
	}
	// A directory at the temp path makes os.WriteFile fail, even as root.
	if err := os.MkdirAll(filepath.Join(s.Dir(), "unwritable.gob.tmp", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]WriteOutcome{}
	var mu sync.Mutex
	request := func(key string, value any, data []byte) WriteRequest {
		return WriteRequest{Key: key, Value: value, Data: data, Budget: budget, OnDone: func(out WriteOutcome) {
			mu.Lock()
			outcomes[key] = out
			mu.Unlock()
		}}
	}
	s.PutAsync(request("landed", nil, make([]byte, 1_000)))
	s.PutAsync(request("declined", nil, make([]byte, budget)))
	s.PutAsync(request("there", nil, make([]byte, 700)))
	s.PutAsync(request("unencodable", make(chan int), nil))
	s.PutAsync(request("unwritable", nil, make([]byte, 800)))
	if err := s.Flush(); err == nil {
		t.Fatal("Flush reported no error for the failed write")
	}
	for key, check := range map[string]func(WriteOutcome) bool{
		"landed":      func(o WriteOutcome) bool { return o.Written },
		"declined":    func(o WriteOutcome) bool { return !o.Written && o.Err == nil && !o.OnDisk() },
		"there":       func(o WriteOutcome) bool { return !o.Written && o.Entry.Size == 500 },
		"unencodable": func(o WriteOutcome) bool { return o.EncodeErr != nil },
		"unwritable":  func(o WriteOutcome) bool { return !o.Written && o.Err != nil },
	} {
		if !check(outcomes[key]) {
			t.Errorf("%s: unexpected outcome %+v", key, outcomes[key])
		}
	}
	// The write-once check under the claim, past the early one.
	if _, wrote, err := s.putBytes(clock.Real{}, WriteRequest{Key: "there", Budget: budget}, make([]byte, 700), true); wrote || err != nil {
		t.Fatalf("a publish of a stored key wrote=%v err=%v, want a dedup", wrote, err)
	}
	if got := reservedBytes(s); got != 0 {
		t.Fatalf("%d B still reserved after Flush", got)
	}
	headroom := budget - s.UsedBytes()
	if out := s.Write(WriteRequest{Key: "fill", Data: make([]byte, headroom), Budget: budget}); !out.Written {
		t.Fatalf("a write of the %d B headroom was declined: %+v", headroom, out)
	}
	if out := s.Write(WriteRequest{Key: "one-more", Data: make([]byte, 1), Budget: budget}); out.Written {
		t.Fatal("a write past the budget was admitted")
	}
}

// TestAdmissionSharedTenantReattach: a shared store reopened on its
// directory charges each tenant with its own bytes, and no other
// tenant's; a private store opened there charges its one budget with
// every byte.
func TestAdmissionSharedTenantReattach(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, tenant := range map[string]string{"a1": "alice", "b1": "bob"} {
		size := map[string]int{"alice": 3_000, "bob": 5_000}[tenant]
		if out := s.Write(WriteRequest{Key: key, Tenant: tenant, Data: make([]byte, size)}); !out.Written {
			t.Fatalf("%s: %+v", key, out)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a, b, none := s.TenantBytes("alice"), s.TenantBytes("bob"), s.TenantBytes(""); a != 3_000 || b != 5_000 || none != 0 {
		t.Fatalf("reattached tenant bytes: alice %d, bob %d, untenanted %d; want 3000, 5000, 0", a, b, none)
	}
	for _, tc := range []struct {
		key, tenant string
		size        int
		budget      int64
		admit       bool
	}{
		{"a2", "alice", 1_001, 4_000, false},
		{"a3", "alice", 1_000, 4_000, true},
		{"n1", "", 4_000, 4_000, true},
		{"b2", "bob", 1_000, 6_000, true},
		{"b3", "bob", 1, 6_000, false},
	} {
		out := s.Write(WriteRequest{Key: tc.key, Tenant: tc.tenant, Data: make([]byte, tc.size), Budget: tc.budget})
		if out.Written != tc.admit || out.Err != nil {
			t.Errorf("%s (tenant %q, %d B, budget %d): written=%v err=%v, want written=%v", tc.key, tc.tenant, tc.size, tc.budget, out.Written, out.Err, tc.admit)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	used := p.UsedBytes()
	if used != 3_000+5_000+1_000+4_000+1_000 {
		t.Fatalf("private reopen holds %d B", used)
	}
	if out := p.Write(WriteRequest{Key: "p1", Data: make([]byte, 1), Budget: used}); out.Written {
		t.Fatal("a private store admitted a write past a budget its labelled bytes already fill")
	}
}

// TestAdmissionMatchesReference replays a random sequence of budgeted and
// unbudgeted writes and deletes, under random tenants, against the
// budget half of Algorithm 2 written out as a plain ledger: a write is
// admitted iff its account's bytes plus its size fit the budget, and a
// delete gives its bytes back.
func TestAdmissionMatchesReference(t *testing.T) {
	for _, shared := range []bool{false, true} {
		t.Run(map[bool]string{false: "private", true: "shared"}[shared], func(t *testing.T) {
			s, err := openStore(t.TempDir(), shared)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			held := map[string]int64{} // the reference ledger, by account
			sizes := map[string]int64{}
			tenants := map[string]string{}
			account := func(tenant string) string {
				if shared {
					return tenant
				}
				return ""
			}
			rng := rand.New(rand.NewSource(48))
			for step := 0; step < 400; step++ {
				if len(sizes) > 0 && rng.Intn(4) == 0 {
					var key string
					for key = range sizes {
						break
					}
					if err := s.Delete(key); err != nil {
						t.Fatal(err)
					}
					held[account(tenants[key])] -= sizes[key]
					delete(sizes, key)
					continue
				}
				key := fmt.Sprint("k", step)
				tenant := []string{"", "alice", "bob"}[rng.Intn(3)]
				size := int64(rng.Intn(300))
				budget := []int64{-1, 0, 500, 1_000}[rng.Intn(4)]
				want := budget <= 0 || held[account(tenant)]+size <= budget
				out := s.Write(WriteRequest{Key: key, Tenant: tenant, Data: make([]byte, size), Budget: budget})
				if out.Written != want || out.Err != nil {
					t.Fatalf("step %d: %d B for %q under budget %d holding %d B: written=%v err=%v, want %v",
						step, size, tenant, budget, held[account(tenant)], out.Written, out.Err, want)
				}
				if want {
					held[account(tenant)] += size
					sizes[key], tenants[key] = size, tenant
				}
			}
			var total int64
			for _, n := range held {
				total += n
			}
			if s.UsedBytes() != total {
				t.Fatalf("store reports %d B used, the reference %d B", s.UsedBytes(), total)
			}
			if shared && (s.TenantBytes("alice") != held["alice"] || s.TenantBytes("bob") != held["bob"]) {
				t.Fatalf("tenant bytes alice %d bob %d, the reference %d and %d",
					s.TenantBytes("alice"), s.TenantBytes("bob"), held["alice"], held["bob"])
			}
		})
	}
}
