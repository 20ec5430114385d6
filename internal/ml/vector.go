// Package ml is HELIX-Go's machine-learning substrate, standing in for the
// JVM libraries the original system delegates to (MLlib, DeepLearning4j,
// scikit-learn equivalents; paper §2.1, §3.3). It provides dense and sparse
// feature vectors, learners (logistic regression, softmax regression,
// k-means, skip-gram embeddings), random Fourier features, learned feature
// transformations (bucketizer, standard scaler, the one-hot feature space
// examples are assembled in), model selection (cross-validation, grid
// search), and evaluation metrics.
//
// Everything is deterministic given an explicit seed, which is what lets
// the workflow layer distinguish reusable operators from nondeterministic
// ones (paper §6.2, MNIST workflow).
//
// Kernel contract. The hot loops (the learners' Fit and Predict, the
// random projection, the embedding updates) call concrete kernels over
// DenseVector (kernels.go) that switch once on an input's representation;
// they never box a DenseVector into a Vector or call a closure per
// coordinate. The Vector interface's ForEach serves the cold paths.
// Every kernel is bit-identical to the in-order sum it replaces: the same
// summation order, no reassociation, and no fused multiply-add. On the
// softmax path every product that feeds an add is written float64(x*y),
// so that compilers which fuse (arm64 and others) give amd64's bits.
// LogisticRegression.Fit trains over a packed copy of its rows, because
// SGD visits them in shuffled order; each row's sums still run in its
// index order.
//
// SoftmaxRegression.Fit trains on a transposed working copy of the weights
// (classLanes): row i holds weight i of every class, one lane per class,
// padded to a multiple of 4 with lanes whose step is 0. For a dense
// example followed by a dense example, one pass down the rows updates the
// weights for the first and scores the second (updateScoreGo, or on amd64
// with AVX2 the assembly kernel updateScoreAVX2, up to 16 classes in four
// YMM registers): each new weight is stored, rounded as the separate
// update would round it, before it enters the next example's in-order
// sum, so the weights and scores are those of the two separate passes.
// The model keeps one weight row per class; Fit writes it back once.
//
// RandomFourierFeatures stores its projection transposed, so the sums of
// many outputs advance together over one input coordinate: on amd64 with
// AVX2 an assembly kernel (rff_amd64.s) keeps 32 outputs in eight YMM
// registers, one output per lane. Lanes never mix, and each lane takes
// x[i]·w_j[i] for i in order with a multiply then an add, so every output
// is the scalar in-order sum bit for bit. Fused multiply-add is banned in
// the kernels: it rounds once where the in-order loop rounds twice. The
// assembly kernels run only where CPUID reports AVX2 and XGETBV shows the
// OS saves the YMM registers, checked once at package init; elsewhere, and
// for the OutDim mod 32 columns, projectGo adds four rows at a time in the
// same order. The cosine is a copy of math.Cos's algorithm (same
// reduction, same polynomials, same operation order) with the octant
// branches replaced by bit selects, so it returns math.Cos's bits without
// its mispredictions.
package ml

import (
	"fmt"
	"math"
	"sort"
)

// Vector is a feature vector x ∈ R^d (paper §3.1, "Data Representation").
// It has a dense and a sparse physical representation behind one interface;
// the synthesizer chooses the representation when assembling examples
// (paper §3.2.1, "Sparse vs. Dense Features").
type Vector interface {
	// Dim returns d, the dimensionality of the enclosing space.
	Dim() int
	// NNZ returns the number of explicitly stored (potentially non-zero)
	// coordinates.
	NNZ() int
	// ForEach calls f for every explicitly stored coordinate in increasing
	// index order.
	ForEach(f func(i int, v float64))
	// ApproxBytes estimates the serialized size, used by the execution
	// engine's materialization decisions.
	ApproxBytes() int64
}

// DenseVector is a contiguous float64 vector.
type DenseVector []float64

// Zeros returns a dense zero vector of dimension d.
func Zeros(d int) DenseVector { return make(DenseVector, d) }

// Dim implements Vector.
func (v DenseVector) Dim() int { return len(v) }

// NNZ implements Vector.
func (v DenseVector) NNZ() int { return len(v) }

// ForEach implements Vector.
func (v DenseVector) ForEach(f func(i int, x float64)) {
	for i, x := range v {
		f(i, x)
	}
}

// ApproxBytes implements Vector.
func (v DenseVector) ApproxBytes() int64 { return int64(8 * len(v)) }

// Clone returns a copy of v.
func (v DenseVector) Clone() DenseVector {
	out := make(DenseVector, len(v))
	copy(out, v)
	return out
}

// AddScaled adds alpha*other to v in place. other may be sparse. Panics
// on dimension mismatch.
func (v DenseVector) AddScaled(alpha float64, other Vector) { axpyDense(v, alpha, other) }

// Scale multiplies v by alpha in place.
func (v DenseVector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// SparseVector stores only non-zero coordinates, sorted by index.
type SparseVector struct {
	N   int       // dimension d
	Idx []int     // sorted coordinate indices
	Val []float64 // values aligned with Idx
}

// Sparse builds a sparse vector of dimension d from an index→value map.
func Sparse(d int, elems map[int]float64) *SparseVector {
	idx := make([]int, 0, len(elems))
	for i := range elems {
		if i < 0 || i >= d {
			panic(fmt.Sprintf("ml: sparse index %d out of range [0,%d)", i, d))
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	val := make([]float64, len(idx))
	for j, i := range idx {
		val[j] = elems[i]
	}
	return &SparseVector{N: d, Idx: idx, Val: val}
}

// Dim implements Vector.
func (v *SparseVector) Dim() int { return v.N }

// NNZ implements Vector.
func (v *SparseVector) NNZ() int { return len(v.Idx) }

// ForEach implements Vector.
func (v *SparseVector) ForEach(f func(i int, x float64)) {
	for j, i := range v.Idx {
		f(i, v.Val[j])
	}
}

// ApproxBytes implements Vector.
func (v *SparseVector) ApproxBytes() int64 { return int64(16 * len(v.Idx)) }

// Example is one labeled (or unlabeled) training example: the assembled
// feature vector plus an optional label (paper §3.2.1, "Examples").
type Example struct {
	X Vector
	// Y is the label; NaN when unlabeled (unsupervised settings).
	Y float64
	// Train marks whether the example belongs to the training split.
	Train bool
	// ID carries an application-level identifier through the pipeline
	// (e.g. a gene name in the genomics workflow).
	ID string
}

// HasLabel reports whether the example carries a label.
func (e Example) HasLabel() bool { return !math.IsNaN(e.Y) }

// Dataset is D: a collection of examples with a shared dimensionality.
type Dataset struct {
	Examples []Example
	Dim      int
}

// ApproxBytes implements the engine's Sizer so datasets report their
// materialization footprint cheaply.
func (d *Dataset) ApproxBytes() int64 {
	var b int64 = 16
	for _, e := range d.Examples {
		b += 32
		if e.X != nil {
			b += e.X.ApproxBytes()
		}
		b += int64(len(e.ID))
	}
	return b
}

// Split partitions the dataset into train and test subsets by the Train
// flag, without copying vectors.
func (d *Dataset) Split() (train, test *Dataset) {
	train = &Dataset{Dim: d.Dim}
	test = &Dataset{Dim: d.Dim}
	for _, e := range d.Examples {
		if e.Train {
			train.Examples = append(train.Examples, e)
		} else {
			test.Examples = append(test.Examples, e)
		}
	}
	return train, test
}
