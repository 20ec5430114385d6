package ml

import (
	"fmt"
	"unsafe"
)

// The concrete kernels behind the hot loops (see the package comment).
// Each sums in index order with one accumulator per output, exactly as the
// in-order loop it replaces; the blocked ones run four such sums side by
// side, so the loop is no longer bound by one add-latency chain but no sum
// is reassociated. The callers guarantee the lengths: dot, dot4 and axpy
// read y (or w) only up to len(x), updateScoreGo reads xn and len(x) rows
// of the working copy, and dotSparse indexes w by stored coordinates.
//
// A product that feeds an add is written float64(x*y). The Go spec rounds
// an explicit conversion, so a compiler that fuses x*y + z into one
// multiply-add (arm64, ppc64le, s390x, riscv64) cannot fuse it, and these
// kernels give amd64's bits everywhere; on amd64 the conversion compiles to
// nothing. projectGo and cos are not yet written so (ROADMAP item 19).
//
// updateScoreGo and the AVX2 kernel behind classLanes.updateScore
// (rff_amd64.s) fuse two passes of softmax SGD over the weights' working
// copy, dim rows of one lane per class (logreg.go): the update of one
// example and the scoring of the next. They are bit-identical to the two
// passes because each score still sums in index order, over the weights
// just stored, and each weight is rounded as the separate update rounds
// it.
//
// projectGo and the AVX2 kernel behind projectDense (rff_amd64.s) compute
// the projection's sums over its transposed weights, many outputs side by
// side: a vector lane, or a slot of out, holds one output's sum, and takes
// its terms in i order, so lanes across outputs reassociate nothing.
//
// Both assembly kernels use VMULPD then VADDPD, never VFMADD: a fused
// multiply-add skips the product's rounding and would change the bits.
// They are chosen once at package init (useAVX2, from CPUID and XGETBV),
// with no knob; the Go kernels serve CPUs without AVX2, other
// architectures and, for the projection, the columns past the last block
// of 32.

// dot returns Σ x[i]·y[i].
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// dot4 returns the four dot products of x with w0…w3.
func dot4(w0, w1, w2, w3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for i, v := range x {
		s0 += float64(w0[i] * v)
		s1 += float64(w1[i] * v)
		s2 += float64(w2[i] * v)
		s3 += float64(w3[i] * v)
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
		s += float64(val[j] * w[i])
	}
	return s
}

// axpySparse adds a·x to y for the x that stores val at the coordinates
// idx.
func axpySparse[I int | int32](y []float64, a float64, idx []I, val []float64) {
	val = val[:len(idx)]
	for j, i := range idx {
		y[i] += float64(a * val[j])
	}
}

// axpy adds a·x to y.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// updateScoreGo is the update-and-score step over the working copy w, whose
// row i holds weight i of each class, one lane per class, at w[i·kp:]. For
// the lanes k < len(a) it sets every weight to float64(w·c) + a[k]·x[i] and
// s[k] to the updated lane's Σ_i w·xn[i], four lanes at a time down the
// rows, then two, then one; the lanes past len(a) are not touched.
func updateScoreGo(w []float64, kp int, c float64, a, x, xn, s []float64) {
	if len(x) > 0 && len(a) > 0 {
		_ = w[(len(x)-1)*kp+len(a)-1] // the last lane of the last row
	}
	xn = xn[:len(x)]
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s[k], s[k+1], s[k+2], s[k+3] = updateScore4(w[k:], kp, c, a[k:k+4], x, xn)
	}
	if k+2 <= len(a) {
		s[k], s[k+1] = updateScore2(w[k:], kp, c, a[k:k+2], x, xn)
		k += 2
	}
	if k < len(a) {
		s[k] = updateScore1(w[k:], kp, c, a[k], x, xn)
	}
}

// The three block kernels below address row i's lanes as &w[0] + i·kp
// without a bounds check: updateScoreGo checked the last lane of the last
// row, and x and xn are of one length. Slicing each row cost two checks
// per row and per block, and left the Go kernel 5–10 % behind the
// per-class rows it replaced.

// updateScore4 is updateScoreGo for the four lanes at the start of w's rows.
func updateScore4(w []float64, kp int, c float64, a []float64, x, xn []float64) (s0, s1, s2, s3 float64) {
	a = a[:4]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	xn = xn[:len(x)]
	base := unsafe.Pointer(unsafe.SliceData(w))
	p := 0
	for i, v := range x {
		r, u := (*[4]float64)(unsafe.Add(base, 8*p)), xn[i]
		t := float64(r[0]*c) + float64(a0*v)
		r[0] = t
		s0 += float64(t * u)
		t = float64(r[1]*c) + float64(a1*v)
		r[1] = t
		s1 += float64(t * u)
		t = float64(r[2]*c) + float64(a2*v)
		r[2] = t
		s2 += float64(t * u)
		t = float64(r[3]*c) + float64(a3*v)
		r[3] = t
		s3 += float64(t * u)
		p += kp
	}
	return s0, s1, s2, s3
}

// updateScore2 is updateScore4 for two lanes.
func updateScore2(w []float64, kp int, c float64, a []float64, x, xn []float64) (s0, s1 float64) {
	a = a[:2]
	a0, a1 := a[0], a[1]
	xn = xn[:len(x)]
	base := unsafe.Pointer(unsafe.SliceData(w))
	p := 0
	for i, v := range x {
		r, u := (*[2]float64)(unsafe.Add(base, 8*p)), xn[i]
		t := float64(r[0]*c) + float64(a0*v)
		r[0] = t
		s0 += float64(t * u)
		t = float64(r[1]*c) + float64(a1*v)
		r[1] = t
		s1 += float64(t * u)
		p += kp
	}
	return s0, s1
}

// updateScore1 is updateScore4 for one lane.
func updateScore1(w []float64, kp int, c, a float64, x, xn []float64) (s float64) {
	xn = xn[:len(x)]
	base := unsafe.Pointer(unsafe.SliceData(w))
	p := 0
	for i, v := range x {
		r := (*float64)(unsafe.Add(base, 8*p))
		t := float64(*r*c) + float64(a*v)
		*r = t
		s += float64(t * xn[i])
		p += kp
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
		x.ForEach(func(i int, v float64) { s += float64(w[i] * v) })
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
		x.ForEach(func(i int, v float64) { y[i] += float64(a * v) })
	}
}

func checkDim(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("ml: %s dimension mismatch %d vs %d", op, a, b))
	}
}
