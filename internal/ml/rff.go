package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// RandomFourierFeatures approximates an RBF kernel by projecting inputs
// through random cosine features — the MnistRandomFFT preprocessing of the
// paper's MNIST workflow (KeystoneML's pipeline, §6.2). The projection is
// drawn at construction time; the paper's workflow draws it fresh every
// run, making the operator nondeterministic and hence never reusable
// (§6.2: "nondeterministic (and hence not reusable) data preprocessing").
type RandomFourierFeatures struct {
	// InDim is the input dimensionality.
	InDim int
	// OutDim is the number of random features; 0 selects 256.
	OutDim int
	// Gamma is the RBF bandwidth; 0 selects 1/InDim.
	Gamma float64
	// Seed draws the projection. Callers model nondeterminism by passing a
	// fresh seed per run.
	Seed int64

	wt []float64 // [InDim][OutDim] projection, transposed: w_j[i] at i·OutDim+j
	b  []float64 // [OutDim] phases
}

// NewRFF draws the random projection for the given configuration.
func NewRFF(inDim, outDim int, gamma float64, seed int64) (*RandomFourierFeatures, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("ml: rff: input dim must be positive, got %d", inDim)
	}
	if outDim <= 0 {
		outDim = 256
	}
	if gamma <= 0 {
		gamma = 1 / float64(inDim)
	}
	rng := rand.New(rand.NewSource(seed))
	r := &RandomFourierFeatures{InDim: inDim, OutDim: outDim, Gamma: gamma, Seed: seed}
	scale := math.Sqrt(2 * gamma)
	r.wt = make([]float64, inDim*outDim)
	r.b = make([]float64, outDim)
	// The draw order is w_0, b_0, w_1, b_1, …, as when w was stored row by
	// row, so a seed keeps its weights.
	for j := 0; j < outDim; j++ {
		for i := 0; i < inDim; i++ {
			r.wt[i*outDim+j] = rng.NormFloat64() * scale
		}
		r.b[j] = rng.Float64() * 2 * math.Pi
	}
	return r, nil
}

// Project maps x into the random feature space: z_j = √(2/D)·cos(w_j·x+b_j).
// Every w_j·x sums i = 0…InDim−1 in order: a dense x through projectDense,
// a sparse x as one axpy of a row of the transposed projection per stored
// coordinate.
func (r *RandomFourierFeatures) Project(x Vector) DenseVector {
	if x.Dim() != r.InDim {
		panic(fmt.Sprintf("ml: rff: input dim %d, want %d", x.Dim(), r.InDim))
	}
	out := make(DenseVector, r.OutDim)
	d := len(out)
	switch x := x.(type) {
	case DenseVector:
		projectDense(out, r.wt, x)
	case *SparseVector:
		for k, i := range x.Idx {
			axpy(out, x.Val[k], r.wt[i*d:(i+1)*d])
		}
	default:
		x.ForEach(func(i int, v float64) { axpy(out, v, r.wt[i*d:(i+1)*d]) })
	}
	r.cosines(out)
	return out
}

// cosines turns the sums s_j held in out into the features
// √(2/D)·cos(s_j+b_j).
func (r *RandomFourierFeatures) cosines(out []float64) {
	norm := math.Sqrt(2 / float64(r.OutDim))
	b := r.b[:len(out)]
	for j, s := range out {
		out[j] = norm * cos(s+b[j])
	}
}

// ProjectDataset maps every example of d, preserving labels and splits.
// The result is dense and OutDim-dimensional — the "large DPR
// intermediates" of the paper's MNIST analysis (§6.5.2).
func (r *RandomFourierFeatures) ProjectDataset(d *Dataset) *Dataset {
	out := &Dataset{Dim: r.OutDim, Examples: make([]Example, len(d.Examples))}
	for i, e := range d.Examples {
		out.Examples[i] = Example{X: r.Project(e.X), Y: e.Y, Train: e.Train, ID: e.ID}
	}
	return out
}

// The cosine below is Go's math.cos (src/math/sin.go) with its octant
// branches turned into bit selects. Copyright 2011 The Go Authors; used
// under Go's BSD-style licence, https://go.dev/LICENSE.
//
// It reduces x by the same Cody–Waite split of π/4 and evaluates the same
// two polynomials in the same order, so each result is math.Cos's to the
// bit; only the choice between the polynomials and the sign no longer
// branch on the octant, which the projection's random phases make
// unpredictable. |x| ≥ 2^29, NaN and ±Inf take math.Cos itself (Payne–Hanek
// reduction and the special cases).

var (
	cosSin = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCos = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// cos returns math.Cos(x), bit for bit.
func cos(x float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	x = math.Abs(x)
	if !(x < 1<<29) {
		return math.Cos(x)
	}
	j := uint64(int64(x * (4 / math.Pi))) // integer part of x/(π/4)
	odd := j & 1                          // map zeros to origin: an odd octant moves up one
	j += odd
	y := float64(int64(j))
	j &= 7
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C

	// j is 0, 2, 4 or 6: octants 2 and 6 take the sine polynomial, 2 and 4
	// are negative.
	zz := z * z
	ys := z + z*zz*((((((cosSin[0]*zz)+cosSin[1])*zz+cosSin[2])*zz+cosSin[3])*zz+cosSin[4])*zz+cosSin[5])
	yc := 1.0 - 0.5*zz + zz*zz*((((((cosCos[0]*zz)+cosCos[1])*zz+cosCos[2])*zz+cosCos[3])*zz+cosCos[4])*zz+cosCos[5])
	useSin := -(j >> 1 & 1)
	sign := (j>>1 ^ j>>2) << 63
	return math.Float64frombits((math.Float64bits(ys)&useSin | math.Float64bits(yc)&^useSin) ^ sign)
}
