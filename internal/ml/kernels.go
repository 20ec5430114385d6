package ml

import "fmt"

// The concrete kernels behind the hot loops (see the package comment).
// Each sums in index order with one accumulator per output, exactly as the
// in-order loop it replaces; the blocked ones run four such sums side by
// side, so the loop is no longer bound by one add-latency chain but no sum
// is reassociated. The callers guarantee the lengths: dot, dot4, axpy and
// the scaleAxpyDot kernels read y (or w, xn) only up to len(x), and
// dotSparse indexes w by stored coordinates.
//
// The scaleAxpyDot kernels fuse two passes of softmax SGD over the K×dim
// weights: the update of one example and the scoring of the next. They
// are bit-identical to the two passes because each score still sums in
// index order, over the weights just stored, and the explicit float64(w·c)
// keeps the shrinkage rounded before the step is added.
//
// projectGo and the AVX2 kernel behind projectDense (rff_amd64.s) compute
// the projection's sums over its transposed weights, many outputs side by
// side: a vector lane, or a slot of out, holds one output's sum, and takes
// its terms in i order, so lanes across outputs reassociate nothing. The
// assembly uses VMULPD then VADDPD, never VFMADD: a fused multiply-add
// skips the product's rounding and would change the bits. The kernel is
// chosen once at package init (useAVX2, from CPUID and XGETBV), with no
// knob; projectGo serves CPUs without AVX2, other architectures and the
// columns past the last block of 32.

// dot returns Σ x[i]·y[i].
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// dot4 returns the four dot products of x with w0…w3.
func dot4(w0, w1, w2, w3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for i, v := range x {
		s0 += w0[i] * v
		s1 += w1[i] * v
		s2 += w2[i] * v
		s3 += w3[i] * v
	}
	return s0, s1, s2, s3
}

// projectGo sets out[j] = Σ_i x[i]·wt[i·len(out)+j] for the columns
// j ≥ from of the transposed projection wt. It adds four rows of wt at a
// time into out[from:], each column's sum still taken in i order. Rows are
// read along, not down: a column's InDim entries lie OutDim·8 bytes apart,
// which at 192 or 256 outputs maps them to a few L1 sets, and a loop over
// four columns at a time ran slower than dot4 over row-major weights.
func projectGo(out, wt, x []float64, from int) {
	d := len(out)
	o := out[from:]
	n := len(o)
	if n == 0 {
		return
	}
	clear(o)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		p := i*d + from
		w0, w1, w2, w3 := wt[p:][:n], wt[p+d:][:n], wt[p+2*d:][:n], wt[p+3*d:][:n]
		v0, v1, v2, v3 := x[i], x[i+1], x[i+2], x[i+3]
		for j, s := range o {
			s += w0[j] * v0
			s += w1[j] * v1
			s += w2[j] * v2
			s += w3[j] * v3
			o[j] = s
		}
	}
	for ; i < len(x); i++ {
		axpy(o, x[i], wt[i*d+from:][:n])
	}
}

// dotSparse returns Σ_j val[j]·w[idx[j]]. The index type is a
// SparseVector's int or a packed training block's int32 (logreg.go).
func dotSparse[I int | int32](idx []I, val []float64, w []float64) float64 {
	val = val[:len(idx)]
	var s float64
	for j, i := range idx {
		s += val[j] * w[i]
	}
	return s
}

// axpySparse adds a·x to y for the x that stores val at the coordinates
// idx.
func axpySparse[I int | int32](y []float64, a float64, idx []I, val []float64) {
	val = val[:len(idx)]
	for j, i := range idx {
		y[i] += a * val[j]
	}
}

// axpy adds a·x to y.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// scaleAxpyDot4 sets w_k to c·w_k + a[k]·x for the four classes w[0…3]
// and returns each updated w_k·xn, the next example's score before its
// bias, in one pass over the weights.
func scaleAxpyDot4(w []DenseVector, c float64, a []float64, x, xn []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0, w1, w2, w3 := w[0][:n], w[1][:n], w[2][:n], w[3][:n]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	xn = xn[:n]
	for i, v := range x {
		u := xn[i]
		t := float64(w0[i]*c) + a0*v
		w0[i] = t
		s0 += t * u
		t = float64(w1[i]*c) + a1*v
		w1[i] = t
		s1 += t * u
		t = float64(w2[i]*c) + a2*v
		w2[i] = t
		s2 += t * u
		t = float64(w3[i]*c) + a3*v
		w3[i] = t
		s3 += t * u
	}
	return s0, s1, s2, s3
}

// scaleAxpyDot2 is scaleAxpyDot4 for the two classes w[0] and w[1].
func scaleAxpyDot2(w []DenseVector, c float64, a []float64, x, xn []float64) (s0, s1 float64) {
	n := len(x)
	w0, w1 := w[0][:n], w[1][:n]
	a0, a1 := a[0], a[1]
	xn = xn[:n]
	for i, v := range x {
		u := xn[i]
		t := float64(w0[i]*c) + a0*v
		w0[i] = t
		s0 += t * u
		t = float64(w1[i]*c) + a1*v
		w1[i] = t
		s1 += t * u
	}
	return s0, s1
}

// scaleAxpyDot is scaleAxpyDot4 for one class.
func scaleAxpyDot(w []float64, c, a float64, x, xn []float64) (s float64) {
	n := len(x)
	w, xn = w[:n], xn[:n]
	for i, v := range x {
		t := float64(w[i]*c) + a*v
		w[i] = t
		s += t * xn[i]
	}
	return s
}

// dotDense returns x·w for a vector of either representation without
// boxing w. It panics on dimension mismatch, as Vector.Dot does.
func dotDense(x Vector, w DenseVector) float64 {
	switch x := x.(type) {
	case DenseVector:
		checkDim("dot", len(x), len(w))
		return dot(x, w)
	case *SparseVector:
		checkDim("dot", x.N, len(w))
		return dotSparse(x.Idx, x.Val, w)
	default:
		checkDim("dot", x.Dim(), len(w))
		var s float64
		x.ForEach(func(i int, v float64) { s += w[i] * v })
		return s
	}
}

// axpyDense adds a·x to y for a vector x of either representation. It
// panics on dimension mismatch.
func axpyDense(y DenseVector, a float64, x Vector) {
	switch x := x.(type) {
	case DenseVector:
		checkDim("add-scaled", len(y), len(x))
		axpy(y, a, x)
	case *SparseVector:
		checkDim("add-scaled", len(y), x.N)
		axpySparse(y, a, x.Idx, x.Val)
	default:
		checkDim("add-scaled", len(y), x.Dim())
		x.ForEach(func(i int, v float64) { y[i] += a * v })
	}
}

func checkDim(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("ml: %s dimension mismatch %d vs %d", op, a, b))
	}
}
