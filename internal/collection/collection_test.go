package collection

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"helix/internal/clock"
)

// NumPartitions returns the partition count.
func (c *Collection[T]) NumPartitions() int { return len(c.parts) }

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestNewAndCollectRoundTrip(t *testing.T) {
	env := &Env{Workers: 3}
	data := ints(10)
	c := New(env, data)
	if got := c.Collect(); !reflect.DeepEqual(got, data) {
		t.Fatalf("Collect = %v, want %v", got, data)
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	if c.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", c.NumPartitions())
	}
}

func TestNewEmptyCollection(t *testing.T) {
	c := New(DefaultEnv(), []int{})
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if got := Map(c, func(i int) int { return i * 2 }).Len(); got != 0 {
		t.Fatalf("Map over empty = %d elements", got)
	}
}

func TestNewFewerElementsThanWorkers(t *testing.T) {
	c := New(&Env{Workers: 8}, []int{1, 2})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if got := c.Collect(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Collect = %v", got)
	}
}

func TestNilEnvBehavesAsSingleWorker(t *testing.T) {
	c := New(nil, ints(5))
	if got := Map(c, func(i int) int { return i + 1 }).Collect(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("Map with nil env = %v", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	c := New(&Env{Workers: 4}, ints(100))
	got := Map(c, func(i int) int { return i * i }).Collect()
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestFlatMapExpandsAndFilters(t *testing.T) {
	c := New(&Env{Workers: 2}, []int{1, 2, 3})
	// Emit i copies of i; 0 copies acts as a filter.
	got := FlatMap(c, func(i int) []int {
		out := make([]int, i)
		for j := range out {
			out[j] = i
		}
		return out
	}).Collect()
	want := []int{1, 2, 2, 3, 3, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FlatMap = %v, want %v", got, want)
	}
}

func TestBarrierOverheadCharged(t *testing.T) {
	base := &Env{Workers: 4, BarrierOverhead: 2 * time.Millisecond}
	m := new(clock.Model)
	c := New(base.On(m), ints(4))
	FlatMap(Map(c, func(i int) int { return i }), func(i int) []int { return []int{i} })
	if got := m.Elapsed(); got != 2*8*time.Millisecond {
		t.Fatalf("two operations on 4 workers billed %v, want exactly 2 × 4 × 2ms", got)
	}
	if base.clock != nil {
		t.Fatal("On mutated the environment it copied")
	}
}

// --- property tests ---

// TestQuickMapIdentity: mapping identity preserves the collection.
func TestQuickMapIdentity(t *testing.T) {
	f := func(data []int, workers uint8) bool {
		env := &Env{Workers: int(workers%8) + 1}
		c := New(env, data)
		got := Map(c, func(i int) int { return i }).Collect()
		if len(data) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMapComposition: Map(g) ∘ Map(f) ≡ Map(g∘f).
func TestQuickMapComposition(t *testing.T) {
	fn := func(i int) int { return i*3 + 1 }
	gn := func(i int) int { return i - 7 }
	f := func(data []int, workers uint8) bool {
		env := &Env{Workers: int(workers%8) + 1}
		c := New(env, data)
		a := Map(Map(c, fn), gn).Collect()
		b := Map(c, func(i int) int { return gn(fn(i)) }).Collect()
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
