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

// PredictClass returns the hard 0/1 decision at threshold 0.5.
func (m *LRModel) PredictClass(x Vector) float64 {
	if m.Predict(x) >= 0.5 {
		return 1
	}
	return 0
}

// Weights exposes the learned weights (used by data-driven pruning,
// paper §5.4: operators producing only zero-weight features can be pruned).
func (m *LRModel) Weights() DenseVector { return m.W }

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
func (lr LogisticRegression) Fit(d *Dataset) (*LRModel, error) {
	train := make([]Example, 0, len(d.Examples))
	for _, e := range d.Examples {
		if e.Train && e.HasLabel() {
			train = append(train, e)
		}
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("ml: logistic regression: no labeled training examples")
	}
	dim := d.Dim
	if dim == 0 {
		dim = train[0].X.Dim()
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
	order := make([]int, len(train))
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
				e := train[j]
				err := sigmoid(dotDense(e.X, w)+bias) - e.Y
				axpyDense(grad, err, e.X)
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

// Scores returns the unnormalized class scores for x.
func (m *SoftmaxModel) Scores(x Vector) DenseVector {
	out := make(DenseVector, len(m.W))
	m.scoresInto(out, x)
	return out
}

// scoresInto writes Scores(x) into out. A dense x is scored against four
// classes at a time; each w_k·x still sums in index order.
func (m *SoftmaxModel) scoresInto(out DenseVector, x Vector) {
	out, bias := out[:len(m.W)], m.Bias[:len(m.W)]
	k := 0
	if dx, ok := x.(DenseVector); ok {
		for _, w := range m.W {
			checkDim("dot", len(dx), len(w))
		}
		for ; k+4 <= len(out); k += 4 {
			s0, s1, s2, s3 := dot4(m.W[k], m.W[k+1], m.W[k+2], m.W[k+3], dx)
			out[k] = s0 + bias[k]
			out[k+1] = s1 + bias[k+1]
			out[k+2] = s2 + bias[k+2]
			out[k+3] = s3 + bias[k+3]
		}
	}
	for ; k < len(out); k++ {
		out[k] = dotDense(x, m.W[k]) + bias[k]
	}
}

// Predict implements Model: it returns the argmax class as a float64.
func (m *SoftmaxModel) Predict(x Vector) float64 {
	best, bestV := 0, math.Inf(-1)
	for k, w := range m.W {
		if v := dotDense(x, w) + m.Bias[k]; v > bestV {
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

// Fit trains on the labeled training examples of d.
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
	m := &SoftmaxModel{W: make([]DenseVector, sr.Classes), Bias: Zeros(sr.Classes)}
	for k := range m.W {
		m.W[k] = Zeros(dim)
	}
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	scores, probs := Zeros(sr.Classes), make([]float64, sr.Classes)
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		step := rate / (1 + 0.1*float64(ep))
		for off := 0; off < len(order); off += batch {
			end := off + batch
			if end > len(order) {
				end = len(order)
			}
			inv := 1 / float64(end-off)
			for _, j := range order[off:end] {
				e := train[j]
				m.scoresInto(scores, e.X)
				softmaxInPlace(scores, probs)
				y := int(e.Y)
				if y < 0 || y >= sr.Classes {
					return nil, fmt.Errorf("ml: softmax regression: label %v out of range [0,%d)", e.Y, sr.Classes)
				}
				dx, dense := e.X.(DenseVector)
				for k := 0; k < sr.Classes; k++ {
					g := probs[k]
					if k == y {
						g -= 1
					}
					// L2 shrinkage then gradient step: one pass for a dense
					// x, two for a sparse one (the shrinkage touches every
					// weight, the step only x's stored coordinates).
					a := -step * inv * g
					if sr.RegParam > 0 && dense {
						checkDim("add-scaled", len(m.W[k]), len(dx))
						scaleAxpy(m.W[k], 1-step*inv*sr.RegParam, a, dx)
					} else {
						if sr.RegParam > 0 {
							m.W[k].Scale(1 - step*inv*sr.RegParam)
						}
						axpyDense(m.W[k], a, e.X)
					}
					m.Bias[k] -= step * inv * g
				}
			}
		}
	}
	return m, nil
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
