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

	w [][]float64 // [OutDim][InDim] projection
	b []float64   // [OutDim] phases
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
	r.w = make([][]float64, outDim)
	r.b = make([]float64, outDim)
	for j := 0; j < outDim; j++ {
		row := make([]float64, inDim)
		for i := range row {
			row[i] = rng.NormFloat64() * scale
		}
		r.w[j] = row
		r.b[j] = rng.Float64() * 2 * math.Pi
	}
	return r, nil
}

// Project maps x into the random feature space: z_j = √(2/D)·cos(w_j·x+b_j).
// A dense x is projected onto four rows of w at a time; each w_j·x still
// sums i = 0…InDim−1 in order.
func (r *RandomFourierFeatures) Project(x Vector) DenseVector {
	if x.Dim() != r.InDim {
		panic(fmt.Sprintf("ml: rff: input dim %d, want %d", x.Dim(), r.InDim))
	}
	out := make(DenseVector, r.OutDim)
	norm := math.Sqrt(2 / float64(r.OutDim))
	b := r.b[:len(out)]
	switch x := x.(type) {
	case DenseVector:
		j := 0
		for ; j+4 <= len(out); j += 4 {
			s0, s1, s2, s3 := dot4(r.w[j], r.w[j+1], r.w[j+2], r.w[j+3], x)
			out[j] = norm * math.Cos(s0+b[j])
			out[j+1] = norm * math.Cos(s1+b[j+1])
			out[j+2] = norm * math.Cos(s2+b[j+2])
			out[j+3] = norm * math.Cos(s3+b[j+3])
		}
		for ; j < len(out); j++ {
			out[j] = norm * math.Cos(dot(x, r.w[j])+b[j])
		}
	case *SparseVector:
		for j := range out {
			out[j] = norm * math.Cos(dotSparse(x.Idx, x.Val, r.w[j])+b[j])
		}
	default:
		for j := range out {
			var dot float64
			w := r.w[j]
			x.ForEach(func(i int, v float64) { dot += w[i] * v })
			out[j] = norm * math.Cos(dot+b[j])
		}
	}
	return out
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
