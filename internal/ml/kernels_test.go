package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The references below are the closure-based implementations the concrete
// kernels replaced, kept verbatim in their arithmetic: every sum in index
// order through Vector.ForEach or Vector.At, Scale and AddScaled as two
// passes. The kernels must agree with them bit for bit (math.Float64bits),
// not within a tolerance. On the softmax path a product that feeds an add
// is written float64(x*y), as in the kernels, so that a compiler that fuses
// multiply-adds fuses neither side.

func refDot(a, b Vector) float64 {
	var s float64
	switch a := a.(type) {
	case DenseVector:
		if o, ok := b.(DenseVector); ok {
			for i, x := range a {
				s += float64(x * o[i])
			}
			return s
		}
		b.ForEach(func(i int, x float64) { s += float64(a[i] * x) })
	case *SparseVector:
		for j, i := range a.Idx {
			s += float64(a.Val[j] * at(b, i))
		}
	}
	return s
}

func refAddScaled(v DenseVector, alpha float64, other Vector) {
	other.ForEach(func(i int, x float64) { v[i] += float64(alpha * x) })
}

func refScale(v DenseVector, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// refProject redraws r's projection from its seed, so it is independent
// of how the kernel stores it.
func refProject(r *RandomFourierFeatures, x Vector) DenseVector {
	rng := rand.New(rand.NewSource(r.Seed))
	scale := math.Sqrt(2 * r.Gamma)
	w := make([][]float64, r.OutDim)
	b := make([]float64, r.OutDim)
	for j := range w {
		w[j] = make([]float64, r.InDim)
		for i := range w[j] {
			w[j][i] = rng.NormFloat64() * scale
		}
		b[j] = rng.Float64() * 2 * math.Pi
	}
	out := make(DenseVector, r.OutDim)
	norm := math.Sqrt(2 / float64(r.OutDim))
	for j := 0; j < r.OutDim; j++ {
		var dot float64
		wj := w[j]
		x.ForEach(func(i int, v float64) { dot += wj[i] * v })
		out[j] = norm * math.Cos(dot+b[j])
	}
	return out
}

func refLRFit(lr LogisticRegression, d *Dataset) *LRModel {
	var train []Example
	for _, e := range d.Examples {
		if e.Train && e.HasLabel() {
			train = append(train, e)
		}
	}
	dim, rate, epochs, batch := d.Dim, lr.LearningRate, lr.Epochs, lr.BatchSize
	if dim == 0 {
		dim = train[0].X.Dim()
	}
	if rate <= 0 {
		rate = 0.1
	}
	if epochs <= 0 {
		epochs = 20
	}
	if batch <= 0 {
		batch = 32
	}
	rng := rand.New(rand.NewSource(lr.Seed))
	w := Zeros(dim)
	var bias float64
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	grad := Zeros(dim)
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		step := rate / (1 + 0.1*float64(ep))
		for off := 0; off < len(order); off += batch {
			end := min(off+batch, len(order))
			for i := range grad {
				grad[i] = 0
			}
			var gBias float64
			for _, j := range order[off:end] {
				e := train[j]
				err := sigmoid(refDot(e.X, w)+bias) - e.Y
				refAddScaled(grad, err, e.X)
				gBias += err
			}
			inv := 1 / float64(end-off)
			if lr.RegParam > 0 {
				refScale(w, 1-step*lr.RegParam)
			}
			refAddScaled(w, -step*inv, grad)
			bias -= step * inv * gBias
		}
	}
	return &LRModel{W: w, Bias: bias}
}

func refScores(m *SoftmaxModel, x Vector) DenseVector {
	out := make(DenseVector, len(m.W))
	for k, w := range m.W {
		out[k] = refDot(x, w) + m.Bias[k]
	}
	return out
}

func refSoftmaxPredict(m *SoftmaxModel, x Vector) float64 {
	best, bestV := 0, math.Inf(-1)
	for k, v := range refScores(m, x) {
		if v > bestV {
			best, bestV = k, v
		}
	}
	return float64(best)
}

func refSoftmaxFit(sr SoftmaxRegression, d *Dataset) *SoftmaxModel {
	var train []Example
	for _, e := range d.Examples {
		if e.Train && e.HasLabel() {
			train = append(train, e)
		}
	}
	dim, rate, epochs, batch := d.Dim, sr.LearningRate, sr.Epochs, sr.BatchSize
	if rate <= 0 {
		rate = 0.1
	}
	if epochs <= 0 {
		epochs = 10
	}
	if batch <= 0 {
		batch = 32
	}
	rng := rand.New(rand.NewSource(sr.Seed))
	m := &SoftmaxModel{W: make([]DenseVector, sr.Classes), Bias: Zeros(sr.Classes)}
	for k := range m.W {
		m.W[k] = Zeros(dim)
	}
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	probs := make([]float64, sr.Classes)
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		step := rate / (1 + float64(0.1*float64(ep)))
		for off := 0; off < len(order); off += batch {
			end := min(off+batch, len(order))
			inv := 1 / float64(end-off)
			for _, j := range order[off:end] {
				e := train[j]
				scores := refScores(m, e.X)
				softmaxInPlace(scores, probs)
				y := int(e.Y)
				for k := 0; k < sr.Classes; k++ {
					g := probs[k]
					if k == y {
						g -= 1
					}
					if sr.RegParam > 0 {
						refScale(m.W[k], 1-float64(step*inv*sr.RegParam))
					}
					refAddScaled(m.W[k], -step*inv*g, e.X)
					m.Bias[k] -= float64(step * inv * g)
				}
			}
		}
	}
	return m
}

func refWord2VecFit(w2v Word2Vec, sentences [][]string) *Embeddings {
	dim, window, neg, epochs, rate := w2v.Dim, w2v.Window, w2v.Negatives, w2v.Epochs, w2v.LearningRate
	counts := make(map[string]int)
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	var words []string
	for w, c := range counts {
		if c >= w2v.MinCount {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	id := make(map[string]int, len(words))
	for i, w := range words {
		id[w] = i
	}
	v := len(words)
	cum := make([]float64, v)
	var z float64
	for i, w := range words {
		z += math.Pow(float64(counts[w]), 0.75)
		cum[i] = z
	}
	rng := rand.New(rand.NewSource(w2v.Seed))
	in := make([]DenseVector, v)
	out := make([]DenseVector, v)
	for i := 0; i < v; i++ {
		in[i] = make(DenseVector, dim)
		for j := range in[i] {
			in[i][j] = (rng.Float64() - 0.5) / float64(dim)
		}
		out[i] = make(DenseVector, dim)
	}
	update := func(w, c DenseVector, y float64, step float64, gradIn DenseVector) {
		g := (sigmoid(refDot(w, c)) - y) * step
		for i := range c {
			gradIn[i] -= g * c[i]
			c[i] -= g * w[i]
		}
	}
	gradIn := make(DenseVector, dim)
	for ep := 0; ep < epochs; ep++ {
		step := rate / (1 + 0.5*float64(ep))
		for _, sent := range sentences {
			ids := make([]int, 0, len(sent))
			for _, w := range sent {
				if i, ok := id[w]; ok {
					ids = append(ids, i)
				}
			}
			for pos, center := range ids {
				lo, hi := max(pos-window, 0), min(pos+window, len(ids)-1)
				for cpos := lo; cpos <= hi; cpos++ {
					if cpos == pos {
						continue
					}
					ctx := ids[cpos]
					for i := range gradIn {
						gradIn[i] = 0
					}
					update(in[center], out[ctx], 1, step, gradIn)
					for s := 0; s < neg; s++ {
						n := sort.SearchFloat64s(cum, rng.Float64()*z)
						if n == ctx {
							continue
						}
						update(in[center], out[n], 0, step, gradIn)
					}
					refAddScaled(in[center], 1, gradIn)
				}
			}
		}
	}
	emb := &Embeddings{Dim: dim, Vectors: make(map[string]DenseVector, v)}
	for i, w := range words {
		emb.Vectors[w] = in[i]
	}
	return emb
}

// randVector returns a seeded vector of dimension d: dense, or sparse with
// about a third of its coordinates stored.
func randVector(rng *rand.Rand, d int, sparse bool) Vector {
	if !sparse {
		v := make(DenseVector, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	elems := map[int]float64{}
	for i := 0; i < d; i++ {
		if rng.Intn(3) == 0 {
			elems[i] = rng.NormFloat64()
		}
	}
	return Sparse(d, elems)
}

func randDataset(rng *rand.Rand, n, d, classes int, sparse bool) *Dataset {
	ds := &Dataset{Dim: d, Examples: make([]Example, n)}
	for i := range ds.Examples {
		ds.Examples[i] = Example{X: randVector(rng, d, sparse), Y: float64(rng.Intn(classes)), Train: i%5 != 0}
	}
	return ds
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Dimensions and counts deliberately off multiples of the 4-wide blocking.
var kernelDims = []int{1, 3, 4, 7, 13, 37}

func TestDotAndAddScaledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range kernelDims {
		for _, sa := range []bool{false, true} {
			for _, sb := range []bool{false, true} {
				a, b := randVector(rng, d, sa), randVector(rng, d, sb)
				name := fmt.Sprintf("d=%d sparse=%v/%v", d, sa, sb)
				sameBits(t, name+" Dot", []float64{vdot(a, b)}, []float64{refDot(a, b)})
				if dense, ok := a.(DenseVector); ok {
					got, want := dense.Clone(), dense.Clone()
					got.AddScaled(-0.37, b)
					refAddScaled(want, -0.37, b)
					sameBits(t, name+" AddScaled", got, want)
					sameBits(t, name+" Norm2", []float64{dense.Norm2()}, []float64{math.Sqrt(refDot(dense, dense))})
				}
			}
		}
	}
}

// projectKernel is a dense projection kernel called directly: it sets
// out[j] = w_j·x for the transposed projection wt.
type projectKernel struct {
	name string
	fn   func(out, wt, x []float64)
}

// projectKernels are the dense kernels this build runs: the pure-Go kernel
// everywhere, and the assembly kernel where the CPU has AVX2
// (rff_amd64_test.go adds it).
var projectKernels = []projectKernel{
	{"go", func(out, wt, x []float64) { projectGo(out, wt, x, 0) }},
}

func TestProjectBitIdentical(t *testing.T) {
	if len(projectKernels) == 1 {
		t.Log("no AVX2 kernel on this build or CPU: checking the pure-Go kernel only")
	}
	rng := rand.New(rand.NewSource(2))
	for _, in := range kernelDims {
		for _, out := range []int{1, 3, 4, 7, 13, 31, 32, 33, 64, 65, 192, 256} {
			r, err := NewRFF(in, out, 0, int64(in*1000+out))
			if err != nil {
				t.Fatal(err)
			}
			for _, sparse := range []bool{false, true} {
				x := randVector(rng, in, sparse)
				name := fmt.Sprintf("in=%d out=%d sparse=%v", in, out, sparse)
				want := refProject(r, x)
				sameBits(t, name, r.Project(x), want)
				dense, ok := x.(DenseVector)
				if !ok {
					continue
				}
				for _, k := range projectKernels {
					got := make([]float64, out)
					for j := range got {
						got[j] = math.NaN() // a column the kernel skips stays NaN
					}
					k.fn(got, r.wt, dense)
					r.cosines(got)
					sameBits(t, name+" kernel="+k.name, got, want)
				}
			}
		}
	}
}

// BenchmarkProjectKernels times the dense projection sums w_j·x (no
// cosine) of 64 random 256-dimensional inputs at mnist's two feature
// counts, for each kernel in projectKernels and for "dot4-rows": dot4 over
// a row-major projection, the layout and kernel before the transpose.
func BenchmarkProjectKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const in = 256
	xs := make([][]float64, 64)
	for k := range xs {
		xs[k] = randVector(rng, in, false).(DenseVector)
	}
	for _, out := range []int{192, 256} {
		r, err := NewRFF(in, out, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]float64, out)
		for j := range rows {
			rows[j] = make([]float64, in)
			for i := range rows[j] {
				rows[j][i] = r.wt[i*out+j]
			}
		}
		kernels := append(projectKernels[:len(projectKernels):len(projectKernels)], projectKernel{"dot4-rows", func(s, _, x []float64) {
			for j := 0; j < len(s); j += 4 {
				s[j], s[j+1], s[j+2], s[j+3] = dot4(rows[j], rows[j+1], rows[j+2], rows[j+3], x)
			}
		}})
		sums := make([]float64, out)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%d->%d/%s", in, out, k.name), func(b *testing.B) {
				for b.Loop() {
					for _, x := range xs {
						k.fn(sums, r.wt, x)
					}
				}
			})
		}
	}
}

func TestCosBitIdentical(t *testing.T) {
	check := func(x float64) {
		if got, want := cos(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cos(%v [%#x]) = %v [%#x], want %v [%#x]", x, math.Float64bits(x),
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const reduce = 1 << 29
	special := []float64{0, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 0x1p-1022, math.MaxFloat64,
		reduce, math.Nextafter(reduce, 0), math.Nextafter(reduce, math.Inf(1)),
		math.Nextafter(math.Nextafter(reduce, 0), 0)}
	for k := -64; k <= 64; k++ {
		m := float64(k) * (math.Pi / 4)
		special = append(special, m, math.Nextafter(m, math.Inf(-1)), math.Nextafter(m, math.Inf(1)))
	}
	for _, x := range special {
		check(x)
		check(-x)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2_500_000; i++ {
		check(rng.Float64()*40 - 20)
		check(rng.NormFloat64() * 5)
		check((rng.Float64()*2 - 1) * reduce)
		check(math.Float64frombits(rng.Uint64()))
	}
}

// sameLRFit fits lr on ds and checks the model, and its predictions on
// every row, bit for bit against refLRFit.
func sameLRFit(t *testing.T, name string, lr LogisticRegression, ds *Dataset) {
	t.Helper()
	got, err := lr.Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := refLRFit(lr, ds)
	sameBits(t, name+" W", got.W, want.W)
	sameBits(t, name+" Bias", []float64{got.Bias}, []float64{want.Bias})
	for i, e := range ds.Examples {
		sameBits(t, fmt.Sprintf("%s Predict[%d]", name, i), []float64{got.Predict(e.X)},
			[]float64{sigmoid(refDot(e.X, want.W) + want.Bias)})
	}
}

func TestLogisticRegressionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range kernelDims {
		for _, sparse := range []bool{false, true} {
			for _, reg := range []float64{0, 0.1} {
				ds := randDataset(rng, 101, d, 2, sparse)
				lr := LogisticRegression{RegParam: reg, Epochs: 3, BatchSize: 7, Seed: int64(d)}
				sameLRFit(t, fmt.Sprintf("d=%d sparse=%v reg=%g", d, sparse, reg), lr, ds)
			}
		}
	}

	// Fit packs its training rows into one block; these datasets vary what
	// goes into it and what is skipped on the way.
	lr := LogisticRegression{RegParam: 0.1, Epochs: 4, BatchSize: 6, Seed: 9}
	for _, d := range kernelDims {
		// Dense and sparse rows side by side, with unlabeled and test rows
		// (which the block skips) interleaved among the training rows.
		ds := &Dataset{Dim: d, Examples: make([]Example, 97)}
		for i := range ds.Examples {
			e := Example{X: randVector(rng, d, i%2 == 0), Y: float64(rng.Intn(2)), Train: i%4 != 3}
			if i%5 == 2 {
				e.Y = math.NaN()
			}
			ds.Examples[i] = e
		}
		sameLRFit(t, fmt.Sprintf("d=%d mixed", d), lr, ds)

		// Dim 0: the model takes the first training row's dimension.
		ds.Dim = 0
		sameLRFit(t, fmt.Sprintf("d=%d Dim=0", d), lr, ds)
	}

	// 59 training rows: no batch size below divides them.
	ds := randDataset(rng, 59, 13, 2, true)
	for i := range ds.Examples {
		ds.Examples[i].Train = true
	}
	for _, batch := range []int{2, 7, 10, 32, 64} {
		sameLRFit(t, fmt.Sprintf("batch=%d of 59", batch), LogisticRegression{RegParam: 0.1, Epochs: 3, BatchSize: batch, Seed: 1}, ds)
	}

	// Census-shaped: categorical and standardized numeric columns assembled
	// by column into slab-backed sparse rows, as the census workflow does.
	const rows = 400
	names := []string{"education", "occupation", "hours", "ageBucket", "eduXocc"}
	cols := make([][]FeatureValue, len(names))
	for j := range cols {
		cols[j] = make([]FeatureValue, rows)
	}
	for i := 0; i < rows; i++ {
		edu, occ := fmt.Sprint("e", rng.Intn(7)), fmt.Sprint("o", rng.Intn(10))
		cols[0][i], cols[1][i] = Cat(edu), Cat(occ)
		cols[2][i] = Num(rng.NormFloat64())
		cols[3][i] = Cat(fmt.Sprint("b", rng.Intn(10)))
		cols[4][i] = Cat(edu + "|" + occ)
	}
	fs := FitFeatureSpaceColumns(names, cols)
	xs := fs.VectorizeColumns(names, cols)
	census := &Dataset{Dim: fs.Dim(), Examples: make([]Example, rows)}
	for i := range census.Examples {
		census.Examples[i] = Example{X: &xs[i], Y: float64(rng.Intn(2)), Train: i < rows*4/5}
	}
	sameLRFit(t, "census-shaped", LogisticRegression{RegParam: 0.1, Epochs: 15, Seed: 1}, census)
}

// A training row whose dimension is not the dataset's panics as the dot
// product over it always did; rows Fit skips are not checked.
func TestLogisticRegressionRowDimensionMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		dim  int
		x    Vector
	}{
		{"shorter dense", 3, Dense(1, 2)},
		{"longer sparse", 3, Sparse(4, map[int]float64{3: 1})},
		{"dense after the first row at Dim 0", 0, Dense(1, 2, 3, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := &Dataset{Dim: tc.dim, Examples: []Example{
				{X: Dense(1, 2, 3), Y: 1, Train: true},
				{X: Dense(1), Y: 1},                       // test split
				{X: Dense(1), Y: math.NaN(), Train: true}, // unlabeled
				{X: tc.x, Y: 0, Train: true},
			}}
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("ml: dot dimension mismatch %d vs 3", tc.x.Dim()); msg != want {
					t.Fatalf("panic %q, want %q", msg, want)
				}
			}()
			LogisticRegression{Epochs: 1}.Fit(ds)
		})
	}
}

func TestSoftmaxRegressionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range kernelDims {
		for _, classes := range []int{2, 3, 4, 7, 10} {
			for _, sparse := range []bool{false, true} {
				for _, reg := range []float64{0, 0.01} {
					ds := randDataset(rng, 53, d, classes, sparse)
					sr := SoftmaxRegression{Classes: classes, RegParam: reg, Epochs: 2, BatchSize: 6, LearningRate: 0.5, Seed: int64(classes)}
					got, err := sr.Fit(ds)
					if err != nil {
						t.Fatal(err)
					}
					want := refSoftmaxFit(sr, ds)
					name := fmt.Sprintf("d=%d K=%d sparse=%v reg=%g", d, classes, sparse, reg)
					for k := range want.W {
						sameBits(t, fmt.Sprintf("%s W[%d]", name, k), got.W[k], want.W[k])
					}
					sameBits(t, name+" Bias", got.Bias, want.Bias)
					for i, e := range ds.Examples {
						sameBits(t, fmt.Sprintf("%s Scores[%d]", name, i), got.Scores(e.X), refScores(want, e.X))
						sameBits(t, fmt.Sprintf("%s Predict[%d]", name, i), []float64{got.Predict(e.X)}, []float64{refSoftmaxPredict(want, e.X)})
					}
				}
			}
		}
	}
}

// sameSoftmaxFit fits sr on ds and checks the model, and its scores and
// predictions on every row, bit for bit against refSoftmaxFit.
func sameSoftmaxFit(t *testing.T, name string, sr SoftmaxRegression, ds *Dataset) {
	t.Helper()
	got, err := sr.Fit(ds)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := refSoftmaxFit(sr, ds)
	for k := range want.W {
		sameBits(t, fmt.Sprintf("%s W[%d]", name, k), got.W[k], want.W[k])
	}
	sameBits(t, name+" Bias", got.Bias, want.Bias)
	for i, e := range ds.Examples {
		sameBits(t, fmt.Sprintf("%s Scores[%d]", name, i), got.Scores(e.X), refScores(want, e.X))
		sameBits(t, fmt.Sprintf("%s Predict[%d]", name, i), []float64{got.Predict(e.X)}, []float64{refSoftmaxPredict(want, e.X)})
	}
}

// Fit updates the weights for one dense example and scores the next dense
// example in one pass. These cases vary where that pass can and cannot
// run: the next row sparse, no next row in the epoch, a partial block of
// classes, batches of one and batches larger than the data.
func TestSoftmaxFusedUpdateAndScoreBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, reg := range []float64{0, 0.01} {
		// Dense and sparse rows side by side: a dense row followed by a
		// sparse one updates in two passes, and the sparse row is scored
		// on its own.
		for _, classes := range []int{5, 6} {
			ds := &Dataset{Dim: 13, Examples: make([]Example, 61)}
			for i := range ds.Examples {
				ds.Examples[i] = Example{X: randVector(rng, 13, rng.Intn(3) == 0), Y: float64(rng.Intn(classes)), Train: i%6 != 5}
			}
			sr := SoftmaxRegression{Classes: classes, RegParam: reg, Epochs: 3, BatchSize: 4, LearningRate: 0.5, Seed: 11}
			sameSoftmaxFit(t, fmt.Sprintf("mixed K=%d reg=%g", classes, reg), sr, ds)
		}

		dense := randDataset(rng, 23, 7, 9, false)
		for i := range dense.Examples {
			dense.Examples[i].Train = true
		}
		// K = 1 and K = 2 mod 4: the blocks of four classes leave one
		// class, or two, to the narrower kernels.
		for _, classes := range []int{5, 9, 6, 10} {
			for i := range dense.Examples {
				dense.Examples[i].Y = float64(i % classes)
			}
			// The last example of each epoch, which no pass scores ahead
			// of, ends a batch of one (1), a partial batch (4), a batch of
			// exactly the data (23) and one larger than the data (64).
			for _, batch := range []int{1, 4, 23, 64} {
				sr := SoftmaxRegression{Classes: classes, RegParam: reg, Epochs: 3, BatchSize: batch, LearningRate: 0.5, Seed: int64(batch)}
				sameSoftmaxFit(t, fmt.Sprintf("K=%d batch=%d reg=%g", classes, batch, reg), sr, dense)
			}
		}

		// One training example: no example ever follows it.
		one := randDataset(rng, 3, 7, 4, false)
		one.Examples[0].Train, one.Examples[1].Train, one.Examples[2].Train = false, true, false
		sameSoftmaxFit(t, fmt.Sprintf("one example reg=%g", reg), SoftmaxRegression{Classes: 4, RegParam: reg, Epochs: 4, LearningRate: 0.5, Seed: 1}, one)
	}
}

// An out-of-range label is found before its example's update, also when
// the previous example's pass has already scored that example.
func TestSoftmaxLabelOutOfRangeAfterFusedScore(t *testing.T) {
	const n, classes = 12, 6
	sr := SoftmaxRegression{Classes: classes, Epochs: 2, BatchSize: 5, Seed: 3}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rand.New(rand.NewSource(sr.Seed)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	rng := rand.New(rand.NewSource(12))
	// Positions 3 (inside the first batch) and 5 (the first of the
	// second): a dense example precedes both in the first epoch.
	for _, pos := range []int{3, 5} {
		for _, label := range []float64{classes, -1} {
			ds := randDataset(rng, n, 7, classes, false)
			for i := range ds.Examples {
				ds.Examples[i].Train = true
			}
			ds.Examples[order[pos]].Y = label
			_, err := sr.Fit(ds)
			want := fmt.Sprintf("ml: softmax regression: label %v out of range [0,%d)", label, classes)
			if err == nil || err.Error() != want {
				t.Errorf("position %d label %v: error %v, want %q", pos, label, err, want)
			}
		}
	}
}

// A dense training row of another dimension panics with the named dot
// mismatch when its turn comes; the pass before it does not score it.
func TestSoftmaxRowDimensionMismatchPanics(t *testing.T) {
	ds := &Dataset{Dim: 3, Examples: []Example{
		{X: Dense(1, 2, 3), Y: 0, Train: true},
		{X: Dense(3, 2, 1), Y: 1, Train: true},
		{X: Dense(1, 2, 3, 4), Y: 1, Train: true},
	}}
	defer func() {
		if msg, _ := recover().(string); msg != "ml: dot dimension mismatch 4 vs 3" {
			t.Fatalf("panic %q, want the named dot mismatch", msg)
		}
	}()
	SoftmaxRegression{Classes: 2, Epochs: 1}.Fit(ds)
}

// softmaxKernel is an update-and-score kernel called directly on a
// working copy: every class's weights w_k become c·w_k + a[k]·x, and s[k]
// the updated w_k·xn.
type softmaxKernel struct {
	name string
	fn   func(l *classLanes, c float64, x, xn []float64)
}

// softmaxKernels are the update-and-score kernels this build runs: the
// pure-Go kernel everywhere, and the assembly kernel where the CPU has
// AVX2 (rff_amd64_test.go adds it).
var softmaxKernels = []softmaxKernel{
	{"go", func(l *classLanes, c float64, x, xn []float64) { updateScoreGo(l.w, l.kp, c, l.a[:l.k], x, xn, l.s) }},
}

// TestSoftmaxKernelsBitIdentical drives each kernel through SGD steps over
// dense and sparse rows as Fit does (the kernel where a dense row follows a
// dense row, the two-pass update and a score otherwise) and checks the
// working copy and every sum bit for bit against per-class weights stepped
// by refScale and refAddScaled and scored by refScores. The sums are
// pre-filled with NaN before each step, and the padding lanes must stay 0.
func TestSoftmaxKernelsBitIdentical(t *testing.T) {
	if len(softmaxKernels) == 1 {
		t.Log("no AVX2 kernel on this build or CPU: checking the pure-Go kernel only")
	}
	rng := rand.New(rand.NewSource(13))
	for _, kern := range softmaxKernels {
		for _, classes := range []int{1, 2, 3, 4, 5, 9, 10, 13, 16, 17} {
			for _, d := range kernelDims {
				name := fmt.Sprintf("kernel=%s K=%d d=%d", kern.name, classes, d)
				ref := &SoftmaxModel{W: make([]DenseVector, classes), Bias: make(DenseVector, classes)}
				l := newClassLanes(classes, d)
				for k := range ref.W {
					ref.W[k] = randVector(rng, d, false).(DenseVector)
					ref.W[k][rng.Intn(d)] = math.Copysign(0, -1) // the score pass must not make it +0
					for i, w := range ref.W[k] {
						l.w[i*l.kp+k] = w
					}
					ref.Bias[k] = rng.NormFloat64()
				}
				checkLanes := func(what string) {
					t.Helper()
					got := make([]float64, d)
					for k, w := range ref.W {
						for i := range got {
							got[i] = l.w[i*l.kp+k]
						}
						sameBits(t, fmt.Sprintf("%s %s W[%d]", name, what, k), got, w)
					}
					for i := 0; i < d; i++ {
						for k := classes; k < l.kp; k++ {
							if v := l.w[i*l.kp+k]; v != 0 {
								t.Fatalf("%s %s: padding lane %d of row %d = %v, want 0", name, what, k, i, v)
							}
						}
					}
				}
				checkSums := func(what string, x Vector) {
					t.Helper()
					got := make([]float64, classes)
					for k := range got {
						got[k] = l.s[k] + ref.Bias[k]
					}
					sameBits(t, name+" "+what, got, refScores(ref, x))
				}
				fillNaN := func() {
					for k := range l.s {
						l.s[k] = math.NaN()
					}
				}

				rows := make([]Vector, 16)
				for j := range rows {
					rows[j] = randVector(rng, d, rng.Intn(3) == 0)
				}
				fillNaN()
				l.score(rows[0])
				checkSums("score[0]", rows[0])
				checkLanes("after score[0]")
				for j := 0; j+1 < len(rows); j++ {
					x, next := rows[j], rows[j+1]
					c := 1.0
					if j%3 != 0 {
						c = 1 - 0.05*rng.Float64()
					}
					for k := range classes {
						l.a[k] = rng.NormFloat64()
					}
					l.a[rng.Intn(classes)] = 0
					for k, w := range ref.W {
						if c != 1 {
							refScale(w, c)
						}
						refAddScaled(w, l.a[k], x)
					}
					fillNaN()
					dx, ok := x.(DenseVector)
					dn, nextOK := next.(DenseVector)
					if ok && nextOK {
						kern.fn(l, c, dx, dn)
					} else {
						if l.step(c, x, next) {
							t.Fatalf("%s step %d: a sparse row took the fused step", name, j)
						}
						l.score(next)
					}
					what := fmt.Sprintf("step %d (dense %v→%v)", j, ok, nextOK)
					checkSums(what, next)
					checkLanes(what)
				}
			}
		}
	}
}

// BenchmarkSoftmaxKernels times one update-and-score step per row over 64
// random dense rows at mnist's shape (10 classes; the projection's 192 and
// 256 features) for each kernel in softmaxKernels, and for "rows": the
// per-class weight rows and kernels (scaleAxpyDot4) the working copy
// replaced.
func BenchmarkSoftmaxKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	const classes = 10
	for _, d := range []int{192, 256} {
		xs := make([][]float64, 65)
		for j := range xs {
			xs[j] = randVector(rng, d, false).(DenseVector)
		}
		a := make([]float64, classes)
		for k := range a {
			a[k] = 1e-3 * rng.NormFloat64()
		}
		const c = 0.999
		for _, kern := range softmaxKernels {
			b.Run(fmt.Sprintf("d=%d/%s", d, kern.name), func(b *testing.B) {
				l := newClassLanes(classes, d)
				copy(l.a, a)
				for b.Loop() {
					for j := 0; j+1 < len(xs); j++ {
						kern.fn(l, c, xs[j], xs[j+1])
					}
				}
			})
		}
		b.Run(fmt.Sprintf("d=%d/rows", d), func(b *testing.B) {
			w := make([]DenseVector, classes)
			for k := range w {
				w[k] = Zeros(d)
			}
			s := make([]float64, classes)
			for b.Loop() {
				for j := 0; j+1 < len(xs); j++ {
					sgdStepRows(w, c, a, xs[j], xs[j+1], s)
				}
			}
		})
	}
}

// sgdStepRows is the update-and-score step over per-class weight rows, as
// SoftmaxRegression.Fit ran it before the working copy: four classes at a
// time, then two, then one.
func sgdStepRows(w []DenseVector, c float64, a, x, xn, s []float64) {
	k := 0
	for ; k+4 <= len(w); k += 4 {
		s[k], s[k+1], s[k+2], s[k+3] = scaleAxpyDot4(w[k:], c, a[k:], x, xn)
	}
	if k+2 <= len(w) {
		s[k], s[k+1] = scaleAxpyDot2(w[k:], c, a[k:], x, xn)
		k += 2
	}
	if k < len(w) {
		s[k] = scaleAxpyDot(w[k], c, a[k], x, xn)
	}
}

// scaleAxpyDot4 sets w_k to c·w_k + a[k]·x for the four classes w[0…3]
// and returns each updated w_k·xn, in one pass over the weights.
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

func w2vCorpus(rng *rand.Rand, sentences int) [][]string {
	vocab := []string{"gene", "protein", "dna", "rna", "cell", "stock", "market", "price", "trade", "bond", "once"}
	out := make([][]string, sentences)
	for i := range out {
		s := make([]string, 3+rng.Intn(9))
		for j := range s {
			s[j] = vocab[rng.Intn(len(vocab)-1)]
		}
		if i == 0 {
			s = append(s, "once") // out of vocabulary at MinCount 2
		}
		out[i] = s
	}
	return out
}

func TestWord2VecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sentences := w2vCorpus(rng, 60)
	for _, dim := range []int{1, 7, 13, 24} {
		w2v := Word2Vec{Dim: dim, Window: 3, Negatives: 4, Epochs: 2, LearningRate: 0.05, MinCount: 2, Seed: int64(dim)}
		got, err := w2v.Fit(sentences)
		if err != nil {
			t.Fatal(err)
		}
		want := refWord2VecFit(w2v, sentences)
		if len(got.Vectors) != len(want.Vectors) {
			t.Fatalf("dim %d: %d words, want %d", dim, len(got.Vectors), len(want.Vectors))
		}
		for w, v := range want.Vectors {
			sameBits(t, fmt.Sprintf("dim=%d %q", dim, w), got.Vectors[w], v)
		}
	}
}

func TestSqDistBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, d := range kernelDims {
		c := randVector(rng, d, false).(DenseVector)
		for _, sparse := range []bool{false, true} {
			x := randVector(rng, d, sparse)
			var cc, xx float64
			for _, v := range c {
				cc += v * v
			}
			x.ForEach(func(_ int, v float64) { xx += v * v })
			want := max(cc-2*refDot(x, c)+xx, 0)
			sameBits(t, fmt.Sprintf("d=%d sparse=%v", d, sparse), []float64{sqDist(c, x)}, []float64{want})
		}
	}
}

func TestAddScaledDimensionMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		other Vector
	}{
		{"shorter dense", Dense(1, 2)},
		{"longer dense", Dense(1, 2, 3, 4)},
		{"shorter sparse", Sparse(2, map[int]float64{1: 1})},
		{"longer sparse", Sparse(4, map[int]float64{3: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := Dense(1, 1, 1)
			defer func() {
				msg, _ := recover().(string)
				if msg != fmt.Sprintf("ml: add-scaled dimension mismatch 3 vs %d", tc.other.Dim()) {
					t.Fatalf("panic %q, want a named dimension mismatch", msg)
				}
				sameBits(t, "v after the refused add", v, Dense(1, 1, 1))
			}()
			v.AddScaled(2, tc.other)
		})
	}
}

func TestDotDimensionMismatchPanicsEveryRepresentation(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b Vector
	}{
		{"dense·shorter sparse", Dense(1, 2, 3), Sparse(2, map[int]float64{1: 1})},
		{"dense·longer sparse", Dense(1, 2, 3), Sparse(4, map[int]float64{3: 1})},
		{"sparse·shorter dense", Sparse(3, map[int]float64{2: 1}), Dense(1, 2)},
		{"sparse·longer dense", Sparse(3, map[int]float64{2: 1}), Dense(1, 2, 3, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); msg == "" {
					t.Fatal("expected a named dimension-mismatch panic")
				}
			}()
			vdot(tc.a, tc.b)
		})
	}
	// The learners' entry points check too.
	defer func() {
		if msg, _ := recover().(string); msg == "" {
			t.Fatal("LRModel.Predict: expected a named dimension-mismatch panic")
		}
	}()
	(&LRModel{W: Zeros(3)}).Predict(Dense(1, 2, 3, 4))
}

func TestKernelsAllocateNothingPerExample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, err := NewRFF(37, 13, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sparse := range []bool{false, true} {
		x := randVector(rng, 37, sparse)
		if n := testing.AllocsPerRun(20, func() { r.Project(x) }); n != 1 {
			t.Errorf("Project (sparse=%v) allocates %v objects, want only its output", sparse, n)
		}
	}

	ds := randDataset(rng, 50, 13, 7, false)
	sm, err := SoftmaxRegression{Classes: 7, Epochs: 1}.Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := LogisticRegression{Epochs: 1}.Fit(randDataset(rng, 50, 13, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, sparse := range []bool{false, true} {
		x := randVector(rng, 13, sparse)
		if n := testing.AllocsPerRun(20, func() { sm.Predict(x) }); n != 0 {
			t.Errorf("SoftmaxModel.Predict (sparse=%v) allocates %v objects", sparse, n)
		}
		if n := testing.AllocsPerRun(20, func() { lm.Predict(x) }); n != 0 {
			t.Errorf("LRModel.Predict (sparse=%v) allocates %v objects", sparse, n)
		}
	}
}

// fitAllocs counts fit's allocations on a small and a large input: a
// count that grows with examples × epochs is a per-example allocation.
func fitAllocs(t *testing.T, name string, fit func(scale int)) {
	t.Helper()
	small := testing.AllocsPerRun(3, func() { fit(1) })
	large := testing.AllocsPerRun(3, func() { fit(4) })
	if small != large {
		t.Errorf("%s allocates %v objects at 1× and %v at 4× examples and epochs", name, small, large)
	}
}

func TestFitAllocationsIndependentOfExamplesAndEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sparse := map[int]*Dataset{1: randDataset(rng, 60, 29, 2, true), 4: randDataset(rng, 240, 29, 2, true)}
	fitAllocs(t, "LogisticRegression.Fit (sparse)", func(scale int) {
		if _, err := (LogisticRegression{RegParam: 0.1, Epochs: 2 * scale, BatchSize: 8}).Fit(sparse[scale]); err != nil {
			t.Fatal(err)
		}
	})
	dense := map[int]*Dataset{1: randDataset(rng, 60, 29, 10, false), 4: randDataset(rng, 240, 29, 10, false)}
	for _, reg := range []float64{0, 0.01} {
		fitAllocs(t, fmt.Sprintf("SoftmaxRegression.Fit (reg=%g)", reg), func(scale int) {
			if _, err := (SoftmaxRegression{Classes: 10, RegParam: reg, Epochs: 2 * scale, BatchSize: 8}).Fit(dense[scale]); err != nil {
				t.Fatal(err)
			}
		})
	}
	corpus := map[int][][]string{1: w2vCorpus(rng, 40)}
	for i := 0; i < 4; i++ { // the same vocabulary, four times the sentences
		corpus[4] = append(corpus[4], corpus[1]...)
	}
	fitAllocs(t, "Word2Vec.Fit", func(scale int) {
		if _, err := (Word2Vec{Dim: 7, Epochs: scale, MinCount: 1, Seed: 1}).Fit(corpus[scale]); err != nil {
			t.Fatal(err)
		}
	})
}
