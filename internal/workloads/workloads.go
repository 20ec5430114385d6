// Package workloads implements the four evaluation workflows of the paper
// (§6.2) — Census, Genomics, Information Extraction (NLP), and MNIST — on
// top of the public HELIX-Go DSL, together with the deterministic
// iteration sequences used to simulate iterative development (§6.3).
//
// Each workload exposes Build, returning the workflow for its current
// knob settings, and Mutate, which modifies a knob of the requested
// component type (DPR, L/I, or PPR) exactly as the paper's methodology
// prescribes: "we randomly choose an operator of the drawn type and
// modify its source code". Knobs enter operator params strings, so a
// mutation marks the operator original and forces recomputation of its
// descendants.
package workloads

import (
	"helix"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/nlp"
)

// Workload is one of the paper's four evaluation workflows with its
// iteration schedule.
type Workload interface {
	// Name identifies the workload ("census", "genomics", "nlp", "mnist").
	Name() string
	// Sequence returns the component type modified at each iteration;
	// index 0 describes the initial version (by convention its dominant
	// component). Its length is the experiment's iteration count.
	Sequence() []core.Component
	// Mutate modifies one knob of the given component type for the given
	// iteration. Mutations are deterministic in (iteration, comp).
	Mutate(iteration int, comp core.Component)
	// Build constructs the workflow for the current knob settings.
	Build() *helix.Workflow
}

// Scale is a global size multiplier for all workloads: 1 is the test
// scale; benchmarks may raise it. It multiplies row/article/image counts.
type Scale struct {
	// Rows multiplies dataset sizes; 0 means 1.
	Rows int
	// CostFactor multiplies the calibrated expense of the NLP parse;
	// 0 means the default.
	CostFactor int
}

func (s Scale) rows(base int) int {
	if s.Rows <= 1 {
		return base
	}
	return base * s.Rows
}

// RegisterAll registers every intermediate type the workloads flow between
// operators, so materialized results decode across sessions.
func RegisterAll() {
	helix.RegisterType(CensusData{})
	helix.RegisterType(CensusTable{})
	helix.RegisterType(Column{})
	helix.RegisterType([]data.Article(nil))
	helix.RegisterType(&data.GeneKB{})
	helix.RegisterType(&data.SpouseKB{})
	helix.RegisterType([][]string(nil))
	helix.RegisterType([]string(nil))
	helix.RegisterType(GenomicsCorpus{})
	helix.RegisterType(IECorpus{})
	helix.RegisterType([]nlp.Document(nil))
	helix.RegisterType([]Candidate(nil))
	helix.RegisterType(&ml.Dataset{})
	helix.RegisterType(ml.DenseVector(nil))
	helix.RegisterType(&ml.SparseVector{})
	helix.RegisterType(&ml.Embeddings{})
	helix.RegisterType(&ml.KMeansModel{})
	helix.RegisterType(Predictions{})
	helix.RegisterType(ml.ClusterSummary{})
	helix.RegisterType(EvalReport{})
	helix.RegisterType([]data.Image(nil))
	helix.RegisterType([]float64(nil))
	helix.RegisterType(map[string]float64(nil))
	helix.RegisterType(0.0)
	helix.RegisterType(0)
	helix.RegisterType("")
}

// Predictions carries a fitted model's inference results through the DAG:
// per-example probabilities or class scores, the true labels, and split
// flags — the DC named "predictions" of Figure 3a line 16.
type Predictions struct {
	Scores []float64
	Labels []float64
	Train  []bool
}

// ApproxBytes implements the engine's Sizer.
func (p Predictions) ApproxBytes() int64 {
	return int64(17*len(p.Scores)) + 16
}

// EvalReport is the scalar-ish output of a PPR reducer: named metrics.
type EvalReport struct {
	Metrics map[string]float64
}

// ApproxBytes implements the engine's Sizer.
func (r EvalReport) ApproxBytes() int64 {
	var b int64 = 16
	for k := range r.Metrics {
		b += int64(len(k)) + 16
	}
	return b
}
