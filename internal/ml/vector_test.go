package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Norm2 returns the Euclidean norm.
func (v DenseVector) Norm2() float64 { return math.Sqrt(dot(v, v)) }

// Dense returns a dense vector backed by v (no copy).
func Dense(v ...float64) DenseVector { return DenseVector(v) }

func TestDenseVectorBasics(t *testing.T) {
	v := Dense(1, 2, 3)
	if v.Dim() != 3 || v.NNZ() != 3 {
		t.Fatalf("dim/nnz = %d/%d", v.Dim(), v.NNZ())
	}
	if v.At(1) != 2 {
		t.Fatalf("At(1) = %v", v.At(1))
	}
	if got := v.Dot(Dense(4, 5, 6)); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestDenseDotSparse(t *testing.T) {
	d := Dense(1, 0, 2, 0, 3)
	s := Sparse(5, map[int]float64{0: 10, 4: 100})
	if got := d.Dot(s); got != 310 {
		t.Fatalf("dense·sparse = %v, want 310", got)
	}
	if got := s.Dot(d); got != 310 {
		t.Fatalf("sparse·dense = %v, want 310", got)
	}
}

func TestDotDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dense(1, 2).Dot(Dense(1, 2, 3))
}

func TestSparseVectorAt(t *testing.T) {
	s := Sparse(10, map[int]float64{3: 1.5, 7: -2})
	if s.At(3) != 1.5 || s.At(7) != -2 || s.At(0) != 0 || s.At(9) != 0 {
		t.Fatal("sparse At wrong")
	}
	if s.NNZ() != 2 || s.Dim() != 10 {
		t.Fatalf("nnz/dim = %d/%d", s.NNZ(), s.Dim())
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	Sparse(3, map[int]float64{5: 1})
}

func TestSparseForEachOrdered(t *testing.T) {
	s := Sparse(100, map[int]float64{50: 1, 2: 2, 99: 3, 10: 4})
	last := -1
	s.ForEach(func(i int, _ float64) {
		if i <= last {
			t.Fatalf("ForEach out of order: %d after %d", i, last)
		}
		last = i
	})
}

func TestAddScaled(t *testing.T) {
	v := Dense(1, 1, 1)
	v.AddScaled(2, Sparse(3, map[int]float64{1: 3}))
	if v[0] != 1 || v[1] != 7 || v[2] != 1 {
		t.Fatalf("AddScaled = %v", v)
	}
}

// Property: sparse and dense representations agree on Dot for random data.
func TestPropertySparseDenseDotAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(50)
		dense := make(DenseVector, d)
		elems := make(map[int]float64)
		for i := 0; i < d/2; i++ {
			j := rng.Intn(d)
			v := rng.NormFloat64()
			dense[j] = v
			elems[j] = v
		}
		// Zero out any dense coordinate not recorded in elems (overwrites).
		for i := range dense {
			if _, ok := elems[i]; !ok {
				dense[i] = 0
			}
		}
		sparse := Sparse(d, elems)
		other := make(DenseVector, d)
		for i := range other {
			other[i] = rng.NormFloat64()
		}
		return almostEqual(dense.Dot(other), sparse.Dot(other), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetSplit(t *testing.T) {
	d := &Dataset{Dim: 1, Examples: []Example{
		{X: Dense(1), Y: 0, Train: true},
		{X: Dense(2), Y: 1, Train: false},
		{X: Dense(3), Y: 1, Train: true},
	}}
	train, test := d.Split()
	if len(train.Examples) != 2 || len(test.Examples) != 1 {
		t.Fatalf("split sizes = %d/%d", len(train.Examples), len(test.Examples))
	}
	if train.Dim != 1 || test.Dim != 1 {
		t.Fatal("split lost dim")
	}
}

func TestExampleHasLabel(t *testing.T) {
	if (Example{Y: math.NaN()}).HasLabel() {
		t.Fatal("NaN label should be unlabeled")
	}
	if !(Example{Y: 0}).HasLabel() {
		t.Fatal("zero label is a label")
	}
}

func TestApproxBytesPositive(t *testing.T) {
	if Dense(1, 2, 3).ApproxBytes() != 24 {
		t.Fatal("dense bytes")
	}
	s := Sparse(100, map[int]float64{1: 1, 2: 2})
	if s.ApproxBytes() != 32 {
		t.Fatal("sparse bytes")
	}
	ds := &Dataset{Examples: []Example{{X: Dense(1), ID: "ab"}}}
	if ds.ApproxBytes() <= 0 {
		t.Fatal("dataset bytes")
	}
}

// Accessors and metrics that only these tests read.

// Inertia returns the total within-cluster squared distance over d —
// the qualitative evaluation metric of the genomics workflow's PPR step.
func (m *KMeansModel) Inertia(d *Dataset) float64 {
	var total float64
	for _, e := range d.Examples {
		_, dist := m.nearest(e.X)
		total += dist
	}
	return total
}

// Scores returns the unnormalized class scores for x.
func (m *SoftmaxModel) Scores(x Vector) DenseVector {
	out := make(DenseVector, len(m.W))
	m.scoresInto(out, x)
	return out
}

// SlotName returns the human-readable name of coordinate i — the
// provenance bookkeeping that lets HELIX trace model weights back to
// operators (paper §5.4, data-driven pruning).
func (fs *FeatureSpace) SlotName(i int) string { return fs.names[i] }

// At returns the i-th coordinate.
func (v DenseVector) At(i int) float64 { return v[i] }

// Dot returns the inner product with other. Panics on dimension
// mismatch.
func (v DenseVector) Dot(other Vector) float64 { return dotDense(other, v) }

// At returns the i-th coordinate (binary search on indices).
func (v *SparseVector) At(i int) float64 {
	j := sort.SearchInts(v.Idx, i)
	if j < len(v.Idx) && v.Idx[j] == i {
		return v.Val[j]
	}
	return 0
}

// Dot returns the inner product with other. Panics on dimension
// mismatch.
func (v *SparseVector) Dot(other Vector) float64 {
	if v.Dim() != other.Dim() {
		panic(fmt.Sprintf("ml: dot dimension mismatch %d vs %d", v.Dim(), other.Dim()))
	}
	if o, ok := other.(DenseVector); ok {
		return dotSparse(v.Idx, v.Val, o)
	}
	var s float64
	for j, i := range v.Idx {
		s += v.Val[j] * at(other, i)
	}
	return s
}

// at returns v's i-th coordinate, whichever its representation.
func at(v Vector, i int) float64 {
	if d, ok := v.(DenseVector); ok {
		return d.At(i)
	}
	return v.(*SparseVector).At(i)
}

// vdot returns v·w, whichever v's representation.
func vdot(v, w Vector) float64 {
	if d, ok := v.(DenseVector); ok {
		return d.Dot(w)
	}
	return v.(*SparseVector).Dot(w)
}
