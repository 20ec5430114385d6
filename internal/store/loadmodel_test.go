package store

import (
	"testing"
	"time"
)

// loadNTimes performs n Gets of key, failing the test on any error.
func loadNTimes(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := s.Get(key); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

// TestEstimateLoadSelfCorrects seeds the bandwidth model with a wildly
// wrong adopted bandwidth and checks that a handful of measured reads —
// whose true throughput is pinned by the simulated-disk throttle —
// converge the estimate onto the measured bandwidth.
func TestEstimateLoadSelfCorrects(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const trueBW = 64e6 // simulated disk: ground truth for measured reads
	s.DiskBytesPerSec = trueBW

	rows := make([]float64, 32<<10) // ~256 KiB encoded, above the model's floor
	for i := range rows {
		rows[i] = float64(i)
	}
	e, err := s.Put("sig-a", "a", rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size < minLoadModelBytes {
		t.Fatalf("artifact too small to exercise the model: %d bytes", e.Size)
	}

	// Seed wrong by 16×: pretend a 1 GB/s disk was observed previously.
	s.loads.adopted = quantizeBandwidth(1e9)
	loadNTimes(t, s, "sig-a", 6)

	bw := s.LoadBandwidth()
	if bw < trueBW/2 || bw > trueBW*2 {
		t.Fatalf("after 6 observations adopted bandwidth = %.0f, want within 2x of %.0f", bw, trueBW)
	}
	est := s.EstimateLoad(e.Size)
	want := time.Millisecond + time.Duration(float64(e.Size)/bw*float64(time.Second))
	if est != want {
		t.Fatalf("EstimateLoad = %v, want %v (adopted bandwidth %0.f)", est, want, bw)
	}
}

// TestEstimateLoadForgetsOldHardware checks the decay: after the disk
// slows 8×, the model abandons the old regime within a few reads instead
// of averaging it in forever. The old regime is both accumulated history
// (real reads at the fast speed) and an adopted bandwidth carried from it.
func TestEstimateLoadForgetsOldHardware(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const fastBW = 64e6
	s.DiskBytesPerSec = fastBW

	rows := make([]float64, 32<<10)
	for i := range rows {
		rows[i] = float64(i)
	}
	if _, err := s.Put("sig-a", "a", rows, 0); err != nil {
		t.Fatal(err)
	}
	loadNTimes(t, s, "sig-a", 6)                // accumulate fast-regime history
	s.loads.adopted = quantizeBandwidth(fastBW) // estimate in use from that regime

	const slowBW = 8e6
	s.DiskBytesPerSec = slowBW // hardware change
	loadNTimes(t, s, "sig-a", 8)

	bw := s.LoadBandwidth()
	if bw < slowBW/2 || bw > slowBW*2.2 {
		t.Fatalf("after hardware change adopted bandwidth = %.0f, want within ~2x of %.0f", bw, slowBW)
	}
}

// TestLoadModelIgnoresTinyReads: artifacts below the size floor must not
// perturb the estimate — tiny reads measure constant costs, not
// bandwidth, and a wobbling estimate would dirty plan fingerprints.
func TestLoadModelIgnoresTinyReads(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put("sig-tiny", "tiny", []float64{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	loadNTimes(t, s, "sig-tiny", 5)
	if bw := s.LoadBandwidth(); bw != 0 {
		t.Fatalf("tiny reads adopted a bandwidth: %.0f", bw)
	}
}

// LoadBandwidth reports the bandwidth (bytes/sec) the store's load-time
// estimate currently assumes from observed reads, or 0 while none has
// been adopted (EstimateLoad then uses its static model). Diagnostic.
func (s *Store) LoadBandwidth() float64 { return s.loads.bandwidth() }
