package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Model is a learned function f usable for inference (learning D → f,
// inference (D, f) → Y; paper §3.1 L/I). Implementations are immutable
// after Fit.
type Model interface {
	// Predict returns the model output for a single feature vector.
	Predict(x Vector) float64
}

// LogisticRegression is a binary logistic-regression learner trained by
// mini-batch SGD with L2 regularization — the "LR" model of the census
// workflow (paper Figure 3a, line 15).
type LogisticRegression struct {
	// RegParam is the L2 regularization strength λ.
	RegParam float64
	// LearningRate is the SGD step size; 0 selects 0.1.
	LearningRate float64
	// Epochs is the number of passes over the training data; 0 selects 20.
	Epochs int
	// BatchSize is the mini-batch size; 0 selects 32.
	BatchSize int
	// Seed drives shuffling; fits are deterministic given a seed.
	Seed int64
}

// LRModel is a fitted logistic-regression model.
type LRModel struct {
	W    DenseVector // feature weights
	Bias float64
}

// Predict returns P(y=1 | x).
func (m *LRModel) Predict(x Vector) float64 { return sigmoid(dotDense(x, m.W) + m.Bias) }

// ApproxBytes implements the engine's Sizer.
func (m *LRModel) ApproxBytes() int64 { return int64(8*len(m.W)) + 16 }

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains on the labeled training examples of d and returns the model.
// SGD visits the rows in shuffled order, so they are first copied into one
// packed block (packRows): each visit then reads one contiguous run of
// indices and values instead of following a Vector to its slices.
func (lr LogisticRegression) Fit(d *Dataset) (*LRModel, error) {
	train, dim, err := packRows(d)
	if err != nil {
		return nil, err
	}
	rate := lr.LearningRate
	if rate <= 0 {
		rate = 0.1
	}
	epochs := lr.Epochs
	if epochs <= 0 {
		epochs = 20
	}
	batch := lr.BatchSize
	if batch <= 0 {
		batch = 32
	}
	rng := rand.New(rand.NewSource(lr.Seed))
	w := Zeros(dim)
	var bias float64
	order := make([]int, len(train.y))
	for i := range order {
		order[i] = i
	}
	grad := Zeros(dim)
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		step := rate / (1 + 0.1*float64(ep)) // decaying schedule
		for off := 0; off < len(order); off += batch {
			end := off + batch
			if end > len(order) {
				end = len(order)
			}
			for i := range grad {
				grad[i] = 0
			}
			var gBias float64
			for _, j := range order[off:end] {
				idx, val := train.row(j)
				err := sigmoid(dotSparse(idx, val, w)+bias) - train.y[j]
				axpySparse(grad, err, idx, val)
				gBias += err
			}
			inv := 1 / float64(end-off)
			// L2 shrinkage then gradient step.
			if lr.RegParam > 0 {
				w.Scale(1 - step*lr.RegParam)
			}
			axpy(w, -step*inv, grad)
			bias -= step * inv * gBias
		}
	}
	return &LRModel{W: w, Bias: bias}, nil
}

// packedRows holds a dataset's labeled training rows in one CSR block: row
// r stores its coordinates idx[off[r]:off[r+1]] with the values at the same
// positions of val, and its label is y[r]. A dense row stores every
// coordinate.
type packedRows struct {
	idx []int32
	val []float64
	off []int32
	y   []float64
}

// row returns row r's stored indices and values.
func (p *packedRows) row(r int) ([]int32, []float64) {
	lo, hi := p.off[r], p.off[r+1]
	return p.idx[lo:hi], p.val[lo:hi]
}

// packRows copies d's labeled training rows, in order, into one packed
// block and returns it with the model's dimension: d.Dim, or the first
// training row's when d.Dim is 0. It counts rows and stored coordinates
// first, so every slice is allocated once at its final size. A row of
// another dimension panics, as the dot product over it would.
func packRows(d *Dataset) (packedRows, int, error) {
	rows, nnz, dim := 0, 0, d.Dim
	for _, e := range d.Examples {
		if e.Train && e.HasLabel() {
			if rows == 0 && dim == 0 {
				dim = e.X.Dim()
			}
			rows++
			nnz += e.X.NNZ()
		}
	}
	if rows == 0 {
		return packedRows{}, 0, fmt.Errorf("ml: logistic regression: no labeled training examples")
	}
	if nnz > math.MaxInt32 || dim > math.MaxInt32 {
		return packedRows{}, 0, fmt.Errorf("ml: logistic regression: %d stored coordinates of dimension %d exceed the packed block's 32-bit indices", nnz, dim)
	}
	p := packedRows{
		idx: make([]int32, 0, nnz),
		val: make([]float64, 0, nnz),
		off: make([]int32, 1, rows+1),
		y:   make([]float64, 0, rows),
	}
	for _, e := range d.Examples {
		if !e.Train || !e.HasLabel() {
			continue
		}
		switch x := e.X.(type) {
		case DenseVector:
			checkDim("dot", len(x), dim)
			for i := range x {
				p.idx = append(p.idx, int32(i))
			}
			p.val = append(p.val, x...)
		case *SparseVector:
			checkDim("dot", x.N, dim)
			for _, i := range x.Idx {
				p.idx = append(p.idx, int32(i))
			}
			p.val = append(p.val, x.Val[:len(x.Idx)]...)
		default:
			checkDim("dot", x.Dim(), dim)
			idx, val := p.idx, p.val
			x.ForEach(func(i int, v float64) {
				idx = append(idx, int32(i))
				val = append(val, v)
			})
			p.idx, p.val = idx, val
		}
		p.off = append(p.off, int32(len(p.idx)))
		p.y = append(p.y, e.Y)
	}
	return p, dim, nil
}

// SoftmaxRegression is a K-class linear classifier trained by mini-batch
// SGD — the multiclass learner of the MNIST workflow.
type SoftmaxRegression struct {
	Classes      int
	RegParam     float64
	LearningRate float64
	Epochs       int
	BatchSize    int
	Seed         int64
}

// SoftmaxModel is a fitted softmax-regression model.
type SoftmaxModel struct {
	W    []DenseVector // one weight vector per class
	Bias DenseVector
}

// Predict implements Model: it returns the argmax class as a float64. A
// dense x is scored against four classes at a time, the classes still
// compared in order.
func (m *SoftmaxModel) Predict(x Vector) float64 {
	best, bestV := 0, math.Inf(-1)
	k := 0
	if dx, ok := x.(DenseVector); ok {
		for _, w := range m.W {
			checkDim("dot", len(dx), len(w))
		}
		for ; k+4 <= len(m.W); k += 4 {
			s0, s1, s2, s3 := dot4(m.W[k], m.W[k+1], m.W[k+2], m.W[k+3], dx)
			for i, s := range [4]float64{s0, s1, s2, s3} {
				if v := s + m.Bias[k+i]; v > bestV {
					best, bestV = k+i, v
				}
			}
		}
	}
	for ; k < len(m.W); k++ {
		if v := dotDense(x, m.W[k]) + m.Bias[k]; v > bestV {
			best, bestV = k, v
		}
	}
	return float64(best)
}

// ApproxBytes implements the engine's Sizer.
func (m *SoftmaxModel) ApproxBytes() int64 {
	var b int64 = 16
	for _, w := range m.W {
		b += int64(8 * len(w))
	}
	return b + int64(8*len(m.Bias))
}

// Fit trains on the labeled training examples of d. For the length of the
// fit the weights live in a working copy with one lane per class
// (classLanes), written back to the model's per-class rows at the end.
func (sr SoftmaxRegression) Fit(d *Dataset) (*SoftmaxModel, error) {
	if sr.Classes < 2 {
		return nil, fmt.Errorf("ml: softmax regression: need ≥2 classes, got %d", sr.Classes)
	}
	train := make([]Example, 0, len(d.Examples))
	for _, e := range d.Examples {
		if e.Train && e.HasLabel() {
			train = append(train, e)
		}
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("ml: softmax regression: no labeled training examples")
	}
	dim := d.Dim
	if dim == 0 {
		dim = train[0].X.Dim()
	}
	rate := sr.LearningRate
	if rate <= 0 {
		rate = 0.1
	}
	epochs := sr.Epochs
	if epochs <= 0 {
		epochs = 10
	}
	batch := sr.BatchSize
	if batch <= 0 {
		batch = 32
	}
	rng := rand.New(rand.NewSource(sr.Seed))
	l := newClassLanes(sr.Classes, dim)
	bias := Zeros(sr.Classes)
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	// scores holds the current example's scores; a becomes each class's
	// gradient step.
	scores, a, probs := l.s[:sr.Classes], l.a[:sr.Classes], make([]float64, sr.Classes)
	// scored says l.s already holds the current example's sums: the
	// previous example's update computed them. It is never set across an
	// epoch's end, where the next epoch's order is not drawn yet.
	scored := false
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		step := rate / (1 + float64(0.1*float64(ep)))
		for off := 0; off < len(order); off += batch {
			end := min(off+batch, len(order))
			inv := 1 / float64(end-off)
			// L2 shrinkage; c = 1 is exact, so it stands for no shrinkage.
			c := 1.0
			if sr.RegParam > 0 {
				c = 1 - float64(step*inv*sr.RegParam)
			}
			for p := off; p < end; p++ {
				e := train[order[p]]
				if !scored {
					l.score(e.X)
				}
				for k, b := range bias {
					scores[k] += b
				}
				softmaxInPlace(scores, probs)
				y := int(e.Y)
				if y < 0 || y >= sr.Classes {
					return nil, fmt.Errorf("ml: softmax regression: label %v out of range [0,%d)", e.Y, sr.Classes)
				}
				for k, g := range probs {
					if k == y {
						g -= 1
					}
					a[k] = -step * inv * g
					bias[k] -= float64(step * inv * g)
				}
				var next Vector
				if p+1 < len(order) {
					next = train[order[p+1]].X
				}
				scored = l.step(c, e.X, next)
			}
		}
	}
	m := &SoftmaxModel{W: make([]DenseVector, sr.Classes), Bias: bias}
	for k := range m.W {
		w := Zeros(dim)
		for i := range w {
			w[i] = l.w[i*l.kp+k]
		}
		m.W[k] = w
	}
	return m, nil
}

// classLanes is softmax SGD's working copy of the weights, transposed:
// row i, at w[i·kp:], holds weight i of every class, one lane per class,
// and kp rounds the k classes up to a multiple of 4. The padding lanes
// have step 0 in a, so their weights stay 0 and no class reads them. The
// sums of the classes advance side by side over one coordinate, the lanes
// of a vector kernel, each still in index order.
type classLanes struct {
	w     []float64
	a     []float64 // each lane's gradient step
	s     []float64 // each lane's sum w_k·x, before its bias
	k, kp int
}

func newClassLanes(k, dim int) *classLanes {
	kp := (k + 3) &^ 3
	return &classLanes{w: make([]float64, dim*kp), a: make([]float64, kp), s: make([]float64, kp), k: k, kp: kp}
}

// step sets every class's weights w_k to c·w_k + a[k]·x. When x and next
// are dense rows of one dimension it also writes next's sums against the
// updated weights into s, in the same pass (updateScore), and reports
// true. Otherwise it updates in two passes, the shrinkage touching every
// weight and the step only x's stored coordinates, and the caller scores
// next.
func (l *classLanes) step(c float64, x, next Vector) bool {
	dx, ok := x.(DenseVector)
	dn, nextOK := next.(DenseVector)
	if ok && nextOK && len(dn) == len(dx) {
		l.updateScore(c, dx, dn)
		return true
	}
	checkDim("add-scaled", len(l.w)/l.kp, x.Dim())
	if c != 1 {
		for i := range l.w {
			l.w[i] *= c
		}
	}
	switch x := x.(type) {
	case DenseVector:
		for i, v := range x {
			l.addScaled(i, v)
		}
	case *SparseVector:
		for j, i := range x.Idx {
			l.addScaled(i, x.Val[j])
		}
	default:
		x.ForEach(l.addScaled)
	}
	return false
}

// addScaled adds a[k]·v to each class's weight i.
func (l *classLanes) addScaled(i int, v float64) {
	a := l.a[:l.k]
	r := l.w[i*l.kp:][:len(a)]
	for k, ak := range a {
		r[k] += float64(ak * v)
	}
}

// score writes each class's sum w_k·x into s, in x's index order. It
// reads the weights only: a step of 0 would turn a weight of −0 into +0.
func (l *classLanes) score(x Vector) {
	checkDim("dot", x.Dim(), len(l.w)/l.kp)
	clear(l.s[:l.k])
	switch x := x.(type) {
	case DenseVector:
		for i, v := range x {
			l.addTerm(i, v)
		}
	case *SparseVector:
		for j, i := range x.Idx {
			l.addTerm(i, x.Val[j])
		}
	default:
		x.ForEach(l.addTerm)
	}
}

// addTerm adds w_k[i]·v to each class's sum.
func (l *classLanes) addTerm(i int, v float64) {
	s := l.s[:l.k]
	r := l.w[i*l.kp:][:len(s)]
	for k, w := range r {
		s[k] += float64(w * v)
	}
}

func softmaxInPlace(scores DenseVector, out []float64) {
	max := math.Inf(-1)
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	var sum float64
	for k, s := range scores {
		out[k] = math.Exp(s - max)
		sum += out[k]
	}
	for k := range out {
		out[k] /= sum
	}
}
