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
// not within a tolerance.

func refDot(a, b Vector) float64 {
	var s float64
	switch a := a.(type) {
	case DenseVector:
		if o, ok := b.(DenseVector); ok {
			for i, x := range a {
				s += x * o[i]
			}
			return s
		}
		b.ForEach(func(i int, x float64) { s += a[i] * x })
	case *SparseVector:
		for j, i := range a.Idx {
			s += a.Val[j] * at(b, i)
		}
	}
	return s
}

func refAddScaled(v DenseVector, alpha float64, other Vector) {
	other.ForEach(func(i int, x float64) { v[i] += alpha * x })
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
		step := rate / (1 + 0.1*float64(ep))
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
						refScale(m.W[k], 1-step*inv*sr.RegParam)
					}
					refAddScaled(m.W[k], -step*inv*g, e.X)
					m.Bias[k] -= step * inv * g
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

func TestProjectBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, in := range kernelDims {
		for _, out := range []int{1, 3, 4, 7, 13, 192} {
			r, err := NewRFF(in, out, 0, int64(in*1000+out))
			if err != nil {
				t.Fatal(err)
			}
			for _, sparse := range []bool{false, true} {
				x := randVector(rng, in, sparse)
				sameBits(t, fmt.Sprintf("in=%d out=%d sparse=%v", in, out, sparse), r.Project(x), refProject(r, x))
			}
		}
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
