package workloads

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"helix"
	"helix/internal/clock"
	"helix/internal/collection"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
)

// CensusData is the raw two-file input of the census workflow.
type CensusData struct {
	Train, Test string
}

// ApproxBytes implements the engine's Sizer.
func (c CensusData) ApproxBytes() int64 { return int64(len(c.Train) + len(c.Test)) }

// CensusTable is the scanner's output: both CSV files in one column-major
// table, the training file's rows first, and each row's split flag.
type CensusTable struct {
	data.Table
	Train []bool
}

// Column is an extractor's output: one raw feature value per row, aligned
// with the scanner's row order — the semantic-unit output of §3.2.1. It
// is deliberately not a Sizer: an estimate would have to walk every value
// at every retirement, and its encoder (codec.go) makes the same walk and
// reports the exact size to the materialization policy.
type Column struct {
	Name   string
	Values []ml.FeatureValue
}

// Census is the income-prediction workflow of Figure 3a: CSV scan, field
// extraction, learned bucketization, interaction features, logistic
// regression, and an accuracy reducer. Domain: social sciences; its
// iteration sequence is dominated by PPR changes (paper §6.5.2: "users in
// the social sciences conduct extensive fine-grained analysis of
// results").
type Census struct {
	Seed int64

	// Env is the dataflow environment (stands in for the Spark cluster;
	// Figure 7b varies Workers and pays BarrierOverhead per operation).
	Env *collection.Env

	// Knobs mutated across iterations.
	trainRows, testRows int
	replicas            int
	fields              []string // active field extractors (DPR knob)
	ageBuckets          int      // bucketizer bins (DPR knob)
	regParam            float64  // LR regularization (L/I knob)
	epochs              int      // LR epochs (L/I knob)
	metric              string   // reducer metric variant (PPR knob)
}

// NewCensus returns the workload at its initial version (Figure 3a
// without the + lines) at the given scale.
func NewCensus(scale Scale, seed int64) *Census {
	return &Census{
		Seed:       seed,
		trainRows:  scale.rows(4000),
		testRows:   scale.rows(1000),
		replicas:   1,
		fields:     []string{"education", "occupation", "capital_loss", "age", "hours_per_week"},
		ageBuckets: 10,
		regParam:   0.1,
		epochs:     15,
		metric:     "accuracy",
	}
}

// NewCensus10x returns the 10×-replicated variant of Figure 7.
func NewCensus10x(scale Scale, seed int64) *Census {
	c := NewCensus(scale, seed)
	c.replicas = 10
	return c
}

// NewCensusCluster returns the census workload configured for a simulated
// cluster of the given worker count (Figure 7b; the paper runs it on the
// 10× data, internal/sim on the 1× — see its paper.go). Each parallel
// operation pays a per-worker barrier overhead modeling scheduling and
// shuffle communication, which is what makes the paper's PPR operations
// regress at 8 workers.
func NewCensusCluster(scale Scale, seed int64, workers int) *Census {
	c := NewCensus(scale, seed)
	c.Env = &collection.Env{Workers: workers, BarrierOverhead: 300 * time.Microsecond}
	return c
}

// env returns the configured dataflow environment or the default.
func (c *Census) env() *collection.Env {
	if c.Env != nil {
		return c.Env
	}
	return collection.DefaultEnv()
}

// Name implements Workload.
func (c *Census) Name() string { return "census" }

// Sequence implements Workload: the 10-iteration schedule sampled from
// the survey's social-science distribution (fixed seed; matches the
// Figure 5(a)/6(a) pattern: three DPR iterations, an L/I iteration at 5,
// PPR elsewhere).
func (c *Census) Sequence() []core.Component {
	return []core.Component{
		core.DPR, core.DPR, core.DPR, core.PPR, core.PPR,
		core.LI, core.PPR, core.PPR, core.PPR, core.PPR,
	}
}

// Mutate implements Workload.
func (c *Census) Mutate(iteration int, comp core.Component) {
	switch comp {
	case core.DPR:
		switch iteration % 3 {
		case 0:
			// Toggle marital_status in the extractor set (the paper's
			// running example adds msExt and drops clExt; Figure 3a).
			c.toggleField("marital_status")
		case 1:
			c.toggleField("capital_loss")
		default:
			if c.ageBuckets == 10 {
				c.ageBuckets = 8
			} else {
				c.ageBuckets = 10
			}
		}
	case core.LI:
		if c.regParam == 0.1 {
			c.regParam = 0.5
		} else {
			c.regParam = 0.1
		}
	case core.PPR:
		switch c.metric {
		case "accuracy":
			c.metric = "accuracy+logloss"
		case "accuracy+logloss":
			c.metric = "confusion"
		default:
			c.metric = "accuracy"
		}
	}
}

func (c *Census) toggleField(f string) {
	for i, g := range c.fields {
		if g == f {
			c.fields = append(c.fields[:i], c.fields[i+1:]...)
			return
		}
	}
	c.fields = append(c.fields, f)
}

// numericCensusFields are the fields extracted as numbers.
var numericCensusFields = map[string]bool{
	"age": true, "fnlwgt": true, "education_num": true,
	"capital_gain": true, "capital_loss": true, "hours_per_week": true,
}

// Build implements Workload, constructing the Figure 3a DAG.
func (c *Census) Build() *helix.Workflow {
	wf := helix.New("census")

	cfg := data.CensusConfig{TrainRows: c.trainRows, TestRows: c.testRows, Seed: c.Seed, Replicas: c.replicas}
	src := wf.Source("data", fmt.Sprintf("census train=%d test=%d seed=%d reps=%d", cfg.TrainRows, cfg.TestRows, cfg.Seed, cfg.Replicas),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			train, test := data.GenerateCensusCSV(cfg)
			return CensusData{Train: train, Test: test}, nil
		})

	env := c.env()
	rows := wf.Scanner("rows", "CSVScanner(all-columns)", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		return scanCensus(env.On(clock.From(ctx)), in[0].(CensusData))
	}, src)

	// One field extractor per active field (Figure 3a lines 5-10).
	extractors := make([]*helix.Op, 0, len(c.fields)+2)
	var ageExt *helix.Op
	var eduExt, occExt *helix.Op
	for _, f := range c.fields {
		field := f
		ext := wf.Extractor(field+"Ext", "FieldExtractor("+field+")", fieldExtractor(env, field), rows)
		switch field {
		case "age":
			ageExt = ext
			continue // age enters via the bucketizer, not raw
		case "education":
			eduExt = ext
		case "occupation":
			occExt = ext
		}
		extractors = append(extractors, ext)
	}

	// ageBucket: a learned discretization (Figure 3a line 11).
	if ageExt != nil {
		bins := c.ageBuckets
		ageBucket := wf.Extractor("ageBucket", fmt.Sprintf("Bucketizer(ageExt, bins=%d)", bins),
			func(ctx context.Context, in []helix.Value) (helix.Value, error) {
				col := in[0].(Column)
				vals := make([]float64, 0, len(col.Values))
				for _, v := range col.Values {
					vals = append(vals, v.Num)
				}
				bk, err := ml.FitBucketizer(vals, bins)
				if err != nil {
					return nil, err
				}
				labels := make([]string, bk.NumBuckets())
				for b := range labels {
					labels[b] = "b" + strconv.Itoa(b)
				}
				out := Column{Name: "ageBucket", Values: make([]ml.FeatureValue, len(col.Values))}
				for i, v := range col.Values {
					out.Values[i] = ml.Cat(labels[int(bk.Transform(v.Num))])
				}
				return out, nil
			}, ageExt)
		extractors = append(extractors, ageBucket)
	}

	// eduXocc: interaction feature (Figure 3a line 12).
	if eduExt != nil && occExt != nil {
		eduXocc := wf.Extractor("eduXocc", "InteractionFeature(eduExt,occExt)",
			func(ctx context.Context, in []helix.Value) (helix.Value, error) {
				a, b := in[0].(Column), in[1].(Column)
				if len(a.Values) != len(b.Values) {
					return nil, fmt.Errorf("census: interaction arity mismatch %d vs %d", len(a.Values), len(b.Values))
				}
				// One string per distinct pair, not per row.
				type pair struct{ a, b string }
				joined := make(map[pair]string)
				out := Column{Name: "eduXocc", Values: make([]ml.FeatureValue, len(a.Values))}
				for i := range a.Values {
					k := pair{a.Values[i].Str, b.Values[i].Str}
					s, ok := joined[k]
					if !ok {
						s = k.a + "|" + k.b
						joined[k] = s
					}
					out.Values[i] = ml.Cat(s)
				}
				return out, nil
			}, eduExt, occExt)
		extractors = append(extractors, eduXocc)
	}

	// raceExt is declared but never fed to the synthesizer — the paper's
	// Figure 3b example of an extractor pruned by program slicing ("prunes
	// away raceExt (grayed out) because it does not contribute to the
	// output"). With pruning disabled (ablation) it runs wastefully.
	wf.Extractor("raceExt", "FieldExtractor(race)", fieldExtractor(env, "race"), rows)

	target := wf.Extractor("target", "FieldExtractor(target)", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		cells, err := in[0].(CensusTable).Col("target")
		if err != nil {
			return nil, fmt.Errorf("census: %w", err)
		}
		out := Column{Name: "target", Values: make([]ml.FeatureValue, len(cells))}
		for i, cell := range cells {
			if cell == ">50K" {
				out.Values[i] = ml.Num(1)
			} else {
				out.Values[i] = ml.Num(0)
			}
		}
		return out, nil
	}, rows)

	// income: example assembly (Figure 3a line 14). Inputs: rows (for the
	// split flags), the feature extractors, and the label extractor.
	synthIn := append([]*helix.Op{rows}, extractors...)
	synthIn = append(synthIn, target)
	income := wf.Synthesizer("income", fmt.Sprintf("examples(features=%d, label=target, scale=standard)", len(extractors)),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			split := in[0].(CensusTable).Train
			nf := len(in) - 2
			names := make([]string, nf)
			cols := make([][]ml.FeatureValue, nf)
			labels := in[len(in)-1].(Column)
			if len(labels.Values) != len(split) {
				return nil, fmt.Errorf("census: %d labels for %d rows", len(labels.Values), len(split))
			}
			// Standardize numeric columns: a data-dependent DPR function
			// whose statistics are learned in the same pass that assembles
			// examples (the paper's batched learning of DPR functions,
			// §3.2.1). Unscaled magnitudes (e.g. capital_loss in the
			// thousands) destabilize SGD.
			var nums []float64
			for ci := range cols {
				col := in[1+ci].(Column)
				if len(col.Values) != len(split) {
					return nil, fmt.Errorf("census: column %s has %d values for %d rows", col.Name, len(col.Values), len(split))
				}
				names[ci], cols[ci] = col.Name, col.Values
				nums = nums[:0]
				for _, v := range col.Values {
					if v.IsNumber {
						nums = append(nums, v.Num)
					}
				}
				if len(nums) != len(col.Values) {
					continue // categorical column
				}
				sc, err := ml.FitStandardScaler(nums)
				if err != nil {
					continue
				}
				scaled := make([]ml.FeatureValue, len(nums))
				for i, x := range nums {
					scaled[i] = ml.Num(sc.Transform(x))
				}
				cols[ci] = scaled
			}
			// Assembled from the columns: no per-row feature map.
			fs := ml.FitFeatureSpaceColumns(names, cols)
			xs := fs.VectorizeColumns(names, cols)
			ds := &ml.Dataset{Dim: fs.Dim(), Examples: make([]ml.Example, len(split))}
			for i := range ds.Examples {
				ds.Examples[i] = ml.Example{X: &xs[i], Y: labels.Values[i].Num, Train: split[i]}
			}
			return ds, nil
		}, synthIn...)

	// incPred: logistic regression + inference (Figure 3a lines 15-16).
	reg, ep := c.regParam, c.epochs
	predictions := wf.Learner("predictions", fmt.Sprintf("Learner(LR, regParam=%g, epochs=%d)", reg, ep),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			ds := in[0].(*ml.Dataset)
			model, err := ml.LogisticRegression{RegParam: reg, Epochs: ep, Seed: 1}.Fit(ds)
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
		}, income)

	// checked: accuracy over the test split (Figure 3a lines 17-20).
	metric := c.metric
	wf.Reducer("checked", "Reducer(metric="+metric+", split=test)",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			p := in[0].(Predictions)
			return evaluateBinary(p, metric), nil
		}, predictions).
		Uses(target). // Figure 3a line 19: UDF dependency on target
		IsOutput()

	return wf
}

// scanCensus parses both CSV files into one table on the dataflow
// substrate: one data-parallel map over each file's lines (the loop fusion
// and parallelism the paper gets from Spark).
func scanCensus(env *collection.Env, cd CensusData) (CensusTable, error) {
	tab, counts, err := data.ParseCSV(func(n int, row func(int) bool) bool {
		lines := make([]int, n)
		for i := range lines {
			lines[i] = i
		}
		return !slices.Contains(collection.Map(collection.New(env, lines), row).Collect(), false)
	}, cd.Train, cd.Test)
	if err != nil {
		return CensusTable{}, fmt.Errorf("census: %w", err)
	}
	train := make([]bool, tab.Rows())
	for i := range counts[0] {
		train[i] = true
	}
	return CensusTable{Table: tab, Train: train}, nil
}

// fieldExtractor returns the Func for a simple per-row field extractor:
// one data-parallel map over the field's column.
func fieldExtractor(env *collection.Env, field string) helix.Func {
	numeric := numericCensusFields[field]
	return func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		cells, err := in[0].(CensusTable).Col(field)
		if err != nil {
			return nil, fmt.Errorf("census: %w", err)
		}
		vals := collection.Map(collection.New(env.On(clock.From(ctx)), cells), func(cell string) ml.FeatureValue {
			if !numeric {
				return ml.Cat(cell)
			}
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return ml.FeatureValue{} // not a number: reported below
			}
			return ml.Num(f)
		}).Collect()
		for i := 0; numeric && i < len(vals); i++ {
			if !vals[i].IsNumber {
				_, err := strconv.ParseFloat(cells[i], 64)
				return nil, fmt.Errorf("census: field %s: %w", field, err)
			}
		}
		return Column{Name: field, Values: vals}, nil
	}
}

// evaluateBinary computes the reducer's metric variants on the test split.
func evaluateBinary(p Predictions, metric string) EvalReport {
	rep := EvalReport{Metrics: make(map[string]float64, 4)}
	var n, correct, tp, fp, fn int
	var logloss float64
	for i := range p.Scores {
		if p.Train[i] {
			continue
		}
		n++
		pred := p.Scores[i] >= 0.5
		truth := p.Labels[i] >= 0.5
		if pred == truth {
			correct++
		}
		switch {
		case pred && truth:
			tp++
		case pred && !truth:
			fp++
		case !pred && truth:
			fn++
		}
		s := p.Scores[i]
		if s < 1e-12 {
			s = 1e-12
		}
		if s > 1-1e-12 {
			s = 1 - 1e-12
		}
		if truth {
			logloss -= math.Log(s)
		} else {
			logloss -= math.Log(1 - s)
		}
	}
	if n == 0 {
		return rep
	}
	rep.Metrics["accuracy"] = float64(correct) / float64(n)
	switch metric {
	case "accuracy+logloss":
		rep.Metrics["logloss"] = logloss / float64(n)
	case "confusion":
		rep.Metrics["tp"] = float64(tp)
		rep.Metrics["fp"] = float64(fp)
		rep.Metrics["fn"] = float64(fn)
	}
	return rep
}
