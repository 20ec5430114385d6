package sim

import (
	"runtime"
	"sync"
	"time"
)

// memSampler periodically samples heap usage during a run, producing the
// peak and average memory figures of the paper's Figure 10.
type memSampler struct {
	interval time.Duration
	stopCh   chan struct{}
	wg       sync.WaitGroup

	mu    sync.Mutex
	peak  uint64
	total uint64
	count uint64
}

// startMemSampler begins sampling runtime.MemStats.HeapAlloc at the given
// interval until stop is called.
func startMemSampler(interval time.Duration) *memSampler {
	s := &memSampler{interval: interval, stopCh: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.sample()
			case <-s.stopCh:
				return
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	s.total += ms.HeapAlloc
	s.count++
	s.mu.Unlock()
}

// stop halts sampling and returns (peak, average) heap bytes observed.
func (s *memSampler) stop() (peak, avg uint64) {
	close(s.stopCh)
	s.wg.Wait()
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0, 0
	}
	return s.peak, s.total / s.count
}
