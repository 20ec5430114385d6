package workloads

import (
	"context"
	"fmt"
	"sync/atomic"

	"helix"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
)

// MNIST is the digit-classification workflow from KeystoneML's evaluation
// (MnistRandomFFT; paper §6.2). Its data preprocessing draws a fresh
// random Fourier projection every run — nondeterministic and therefore
// never reusable — and produces large intermediates, so the only
// profitable reuse is of the small L/I outputs on PPR iterations
// (paper §6.5.2, Figure 5d/6d).
type MNIST struct {
	Seed int64

	trainImages, testImages int
	side                    int
	rffDim                  int     // DPR knob: random feature count
	gamma                   float64 // DPR knob: RBF bandwidth
	regParam                float64 // L/I knob
	epochs                  int     // L/I knob
	metric                  string  // PPR knob

	// runCounter feeds the fresh projection seed each execution, modeling
	// the paper's unseeded randomness while keeping tests reproducible at
	// the process level.
	runCounter atomic.Int64
}

// NewMNIST returns the workload at its initial version.
func NewMNIST(scale Scale, seed int64) *MNIST {
	return &MNIST{
		Seed:        seed,
		trainImages: scale.rows(1500),
		testImages:  scale.rows(400),
		side:        16,
		rffDim:      192,
		gamma:       0.1,
		regParam:    0.01,
		epochs:      12,
		metric:      "accuracy",
	}
}

// Name implements Workload.
func (m *MNIST) Name() string { return "mnist" }

// Sequence implements Workload: a computer-vision mixture of DPR, L/I and
// PPR iterations (Figure 5d/6d).
func (m *MNIST) Sequence() []core.Component {
	return []core.Component{
		core.DPR, core.LI, core.DPR, core.LI, core.PPR,
		core.LI, core.DPR, core.PPR, core.LI, core.PPR,
	}
}

// Mutate implements Workload.
func (m *MNIST) Mutate(iteration int, comp core.Component) {
	switch comp {
	case core.DPR:
		if iteration%2 == 0 {
			if m.rffDim == 192 {
				m.rffDim = 256
			} else {
				m.rffDim = 192
			}
		} else {
			if m.gamma == 0.1 {
				m.gamma = 0.05
			} else {
				m.gamma = 0.1
			}
		}
	case core.LI:
		if iteration%2 == 0 {
			if m.regParam == 0.01 {
				m.regParam = 0.1
			} else {
				m.regParam = 0.01
			}
		} else {
			if m.epochs == 12 {
				m.epochs = 16
			} else {
				m.epochs = 12
			}
		}
	case core.PPR:
		if m.metric == "accuracy" {
			m.metric = "confusion"
		} else {
			m.metric = "accuracy"
		}
	}
}

// Build implements Workload.
func (m *MNIST) Build() *helix.Workflow {
	wf := helix.New("mnist")

	nTrain, nTest, side, seed := m.trainImages, m.testImages, m.side, m.Seed
	src := wf.Source("images", fmt.Sprintf("digits train=%d test=%d side=%d seed=%d", nTrain, nTest, side, seed),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			return data.GenerateDigits(data.DigitsConfig{
				TrainImages: nTrain, TestImages: nTest, Side: side, Seed: seed,
			}), nil
		})

	pixels := wf.Scanner("pixels", "flatten+scale", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		imgs := in[0].([]data.Image)
		ds := &ml.Dataset{Dim: side * side, Examples: make([]ml.Example, len(imgs))}
		for i, im := range imgs {
			ds.Examples[i] = ml.Example{X: ml.DenseVector(im.Pixels), Y: float64(im.Label), Train: im.Train}
		}
		return ds, nil
	}, src)

	// rffFeatures: nondeterministic random Fourier features — the paper's
	// nonreusable DPR step with large output.
	rffDim, gamma := m.rffDim, m.gamma
	counter := &m.runCounter
	rff := wf.Extractor("rffFeatures", fmt.Sprintf("RandomFFT(D=%d, gamma=%g)", rffDim, gamma),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			ds := in[0].(*ml.Dataset)
			// Fresh projection every run: this operator is declared
			// Nondeterministic, so HELIX never reuses its output.
			runSeed := seed*1000 + counter.Add(1)
			proj, err := ml.NewRFF(ds.Dim, rffDim, gamma, runSeed)
			if err != nil {
				return nil, err
			}
			return proj.ProjectDataset(ds), nil
		}, pixels)
	rff.Nondeterministic()

	reg, ep := m.regParam, m.epochs
	predictions := wf.Learner("digitPred", fmt.Sprintf("Learner(Softmax, reg=%g, epochs=%d)", reg, ep),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			ds := in[0].(*ml.Dataset)
			model, err := ml.SoftmaxRegression{Classes: 10, RegParam: reg, Epochs: ep, LearningRate: 0.5, Seed: 7}.Fit(ds)
			if err != nil {
				return nil, err
			}
			p := Predictions{
				Scores: make([]float64, len(ds.Examples)),
				Labels: make([]float64, len(ds.Examples)),
				Train:  make([]bool, len(ds.Examples)),
			}
			for i, e := range ds.Examples {
				p.Scores[i] = model.Predict(e.X)
				p.Labels[i] = e.Y
				p.Train[i] = e.Train
			}
			return p, nil
		}, rff)

	metric := m.metric
	wf.Reducer("checked", "Reducer(metric="+metric+", split=test)",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			p := in[0].(Predictions)
			rep := EvalReport{Metrics: map[string]float64{}}
			var n, correct int
			perClassWrong := make([]int, 10)
			for i := range p.Scores {
				if p.Train[i] {
					continue
				}
				n++
				if p.Scores[i] == p.Labels[i] {
					correct++
				} else if int(p.Labels[i]) < 10 {
					perClassWrong[int(p.Labels[i])]++
				}
			}
			if n > 0 {
				rep.Metrics["accuracy"] = float64(correct) / float64(n)
			}
			if metric == "confusion" {
				for k, w := range perClassWrong {
					rep.Metrics[fmt.Sprintf("wrong_%d", k)] = float64(w)
				}
			}
			return rep, nil
		}, predictions).
		IsOutput()

	return wf
}
