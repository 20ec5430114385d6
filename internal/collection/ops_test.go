package collection

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDistinctKeepsFirstOccurrence(t *testing.T) {
	c := New(DefaultEnv(), []string{"b", "a", "b", "c", "a"})
	got := Distinct(c, func(s string) string { return s }).Collect()
	if !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Fatalf("distinct = %v", got)
	}
}

func TestDistinctByDerivedKey(t *testing.T) {
	type pair struct{ K, V int }
	c := New(DefaultEnv(), []pair{{1, 10}, {2, 20}, {1, 30}})
	got := Distinct(c, func(p pair) int { return p.K }).Collect()
	if len(got) != 2 || got[0].V != 10 || got[1].V != 20 {
		t.Fatalf("distinct = %v", got)
	}
}

// Property: Distinct produces no duplicate keys and is a subset of input.
func TestQuickDistinctInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(20)
		}
		got := Distinct(New(&Env{Workers: 1 + rng.Intn(4)}, in), func(x int) int { return x }).Collect()
		seen := make(map[int]bool)
		inSet := make(map[int]bool)
		for _, v := range in {
			inSet[v] = true
		}
		for _, v := range got {
			if seen[v] {
				return false // duplicate survived
			}
			seen[v] = true
			if !inSet[v] {
				return false // invented element
			}
		}
		return len(seen) == len(inSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
