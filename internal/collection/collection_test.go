package collection

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"helix/internal/clock"
)

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

func TestFilter(t *testing.T) {
	c := New(&Env{Workers: 3}, ints(10))
	got := Filter(c, func(i int) bool { return i%2 == 0 }).Collect()
	if !reflect.DeepEqual(got, []int{0, 2, 4, 6, 8}) {
		t.Fatalf("Filter = %v", got)
	}
}

func TestReduceSum(t *testing.T) {
	c := New(&Env{Workers: 4}, ints(101))
	sum := Reduce(c,
		func() int { return 0 },
		func(a, v int) int { return a + v },
		func(a, b int) int { return a + b })
	if sum != 5050 {
		t.Fatalf("Reduce sum = %d, want 5050", sum)
	}
}

func TestJoinInner(t *testing.T) {
	env := &Env{Workers: 2}
	left := New(env, []string{"apple", "avocado", "banana"})
	right := New(env, []int{1, 5, 6, 7})
	// Join on first letter ↔ digit count parity trick: key by initial/parity.
	pairs := Join(left, right,
		func(s string) int { return len(s) % 2 },
		func(i int) int { return i % 2 })
	got := pairs.Collect()
	// "apple"(5,odd) matches 1,5,7; "avocado"(7,odd) matches 1,5,7;
	// "banana"(6,even) matches 6.
	if len(got) != 7 {
		t.Fatalf("join produced %d pairs, want 7", len(got))
	}
}

func TestJoinNoMatches(t *testing.T) {
	env := DefaultEnv()
	left := New(env, []int{1, 2})
	right := New(env, []int{3, 4})
	pairs := Join(left, right, func(i int) int { return i }, func(i int) int { return i })
	if pairs.Len() != 0 {
		t.Fatalf("join = %d pairs, want 0", pairs.Len())
	}
}

func TestGroupBy(t *testing.T) {
	c := New(&Env{Workers: 3}, ints(10))
	groups := GroupBy(c, func(i int) int { return i % 3 })
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if got := groups[0]; !reflect.DeepEqual(got, []int{0, 3, 6, 9}) {
		t.Fatalf("group 0 = %v", got)
	}
}

func TestSampleDeterministic(t *testing.T) {
	c := New(&Env{Workers: 2}, ints(1000))
	a := Sample(c, 0.3, 7).Collect()
	b := Sample(c, 0.3, 7).Collect()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Sample not deterministic for same seed")
	}
	if len(a) < 200 || len(a) > 400 {
		t.Fatalf("sample size %d out of expected range for 0.3 of 1000", len(a))
	}
}

func TestSampleFractionBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for fraction > 1")
		}
	}()
	Sample(New(DefaultEnv(), ints(3)), 1.5, 0)
}

func TestSplit(t *testing.T) {
	c := New(&Env{Workers: 2}, ints(10))
	even, odd := Split(c, func(i int) bool { return i%2 == 0 })
	if even.Len() != 5 || odd.Len() != 5 {
		t.Fatalf("split sizes = %d, %d", even.Len(), odd.Len())
	}
	for _, v := range even.Collect() {
		if v%2 != 0 {
			t.Fatalf("even split contains %d", v)
		}
	}
}

func TestRepartition(t *testing.T) {
	c := New(&Env{Workers: 2}, ints(20))
	filtered := Filter(c, func(i int) bool { return i < 3 })
	r := Repartition(filtered, &Env{Workers: 5})
	if r.Len() != 3 {
		t.Fatalf("repartition lost data: %d", r.Len())
	}
	if r.NumPartitions() != 5 {
		t.Fatalf("partitions = %d, want 5", r.NumPartitions())
	}
}

// TestBarrierOverheadCharged: every parallel operation sleeps the barrier
// overhead once per worker on the environment's clock — exactly, on a
// model clock — and an environment taken On a clock leaves the original's
// untouched.
func TestBarrierOverheadCharged(t *testing.T) {
	base := &Env{Workers: 4, BarrierOverhead: 2 * time.Millisecond}
	m := new(clock.Model)
	c := New(base.On(m), ints(4))
	Filter(Map(c, func(i int) int { return i }), func(int) bool { return true })
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

// TestQuickFilterSubset: filtered output is a subsequence of input
// containing exactly the matching elements.
func TestQuickFilterSubset(t *testing.T) {
	f := func(data []int, workers uint8) bool {
		env := &Env{Workers: int(workers%8) + 1}
		pred := func(i int) bool { return i%3 == 0 }
		got := Filter(New(env, data), pred).Collect()
		var want []int
		for _, v := range data {
			if pred(v) {
				want = append(want, v)
			}
		}
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReduceMatchesSequential: parallel reduce equals sequential fold
// for an associative/commutative operation.
func TestQuickReduceMatchesSequential(t *testing.T) {
	f := func(data []int32, workers uint8) bool {
		env := &Env{Workers: int(workers%8) + 1}
		c := New(env, data)
		got := Reduce(c, func() int64 { return 0 },
			func(a int64, v int32) int64 { return a + int64(v) },
			func(a, b int64) int64 { return a + b })
		var want int64
		for _, v := range data {
			want += int64(v)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickJoinMatchesNestedLoop: hash join agrees with the nested-loop
// definition up to ordering.
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := &Env{Workers: 1 + rng.Intn(4)}
		nl, nr := rng.Intn(20), rng.Intn(20)
		left := make([]int, nl)
		right := make([]int, nr)
		for i := range left {
			left[i] = rng.Intn(5)
		}
		for i := range right {
			right[i] = rng.Intn(5)
		}
		key := func(i int) int { return i }
		got := Join(New(env, left), New(env, right), key, key).Collect()
		var want []Pair[int, int]
		for _, l := range left {
			for _, r := range right {
				if l == r {
					want = append(want, Pair[int, int]{l, r})
				}
			}
		}
		canon := func(ps []Pair[int, int]) []Pair[int, int] {
			sort.Slice(ps, func(i, j int) bool {
				if ps[i].Left != ps[j].Left {
					return ps[i].Left < ps[j].Left
				}
				return ps[i].Right < ps[j].Right
			})
			return ps
		}
		got, want = canon(got), canon(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
