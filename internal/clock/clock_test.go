package clock

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestZeroValueIsReal: a context that carries no clock, and Real's zero
// value, read the host's clock.
func TestZeroValueIsReal(t *testing.T) {
	c := From(context.Background())
	if _, ok := c.(Real); !ok {
		t.Fatalf("From(empty context) = %T, want Real", c)
	}
	var r Real
	before := time.Now()
	now := r.Now()
	if now.Before(before) || now.After(time.Now()) {
		t.Fatalf("Real.Now() = %v, outside [%v, now]", now, before)
	}
	start := r.Now()
	r.Sleep(time.Millisecond)
	if d := r.Since(start); d < time.Millisecond {
		t.Fatalf("Real.Sleep(1ms) returned after %v", d)
	}
}

// TestModelSleepAdvancesExactly: the model moves by exactly what is slept
// on it and by nothing else, and a context hands it back unchanged.
func TestModelSleepAdvancesExactly(t *testing.T) {
	m := new(Model)
	c := From(With(context.Background(), m))
	if c != Clock(m) {
		t.Fatalf("From(With(m)) = %v, want the model itself", c)
	}
	start := c.Now()
	if !start.Equal(time.Time{}) {
		t.Fatalf("zero model reads %v, want the zero time", start)
	}
	c.Sleep(3 * time.Millisecond)
	c.Sleep(-time.Second) // no-op, as for time.Sleep
	time.Sleep(time.Millisecond)
	if d := c.Since(start); d != 3*time.Millisecond {
		t.Fatalf("Since = %v after sleeping 3ms on the model, want exactly 3ms", d)
	}
	if got := m.Now().Sub(start); got != m.Elapsed() {
		t.Fatalf("Now - start = %v, Elapsed = %v", got, m.Elapsed())
	}
}

// TestModelConcurrentSleepsSum: concurrent sleepers add up to their sum
// (run under -race in CI).
func TestModelConcurrentSleepsSum(t *testing.T) {
	m := new(Model)
	const sleepers, each = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < sleepers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				m.Sleep(time.Microsecond)
				_ = m.Since(m.Now())
			}
		}()
	}
	wg.Wait()
	if got, want := m.Elapsed(), sleepers*each*time.Microsecond; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
}
