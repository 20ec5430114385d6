package workloads

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
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

// TaggedRow is one parsed census row with its split flag.
type TaggedRow struct {
	Row   data.Row
	Train bool
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
	ScaleCfg Scale
	Seed     int64

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
		ScaleCfg:   scale,
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
		cd := in[0].(CensusData)
		env := env.On(clock.From(ctx))
		trainRows, err := parseCSVParallel(env, cd.Train)
		if err != nil {
			return nil, err
		}
		testRows, err := parseCSVParallel(env, cd.Test)
		if err != nil {
			return nil, err
		}
		out := make([]TaggedRow, 0, len(trainRows)+len(testRows))
		for _, r := range trainRows {
			out = append(out, TaggedRow{Row: r, Train: true})
		}
		for _, r := range testRows {
			out = append(out, TaggedRow{Row: r, Train: false})
		}
		return out, nil
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
				out := Column{Name: "ageBucket", Values: make([]ml.FeatureValue, len(col.Values))}
				for i, v := range col.Values {
					out.Values[i] = ml.Cat(fmt.Sprintf("b%d", int(bk.Transform(v.Num))))
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
				out := Column{Name: "eduXocc", Values: make([]ml.FeatureValue, len(a.Values))}
				for i := range a.Values {
					out.Values[i] = ml.Cat(a.Values[i].Str + "|" + b.Values[i].Str)
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
		rs := in[0].([]TaggedRow)
		out := Column{Name: "target", Values: make([]ml.FeatureValue, len(rs))}
		for i, r := range rs {
			if r.Row["target"] == ">50K" {
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
			rs := in[0].([]TaggedRow)
			nf := len(in) - 2
			cols := make([]Column, nf)
			for i := 0; i < nf; i++ {
				cols[i] = in[1+i].(Column)
			}
			labels := in[len(in)-1].(Column)
			// Standardize numeric columns: a data-dependent DPR function
			// whose statistics are learned in the same pass that assembles
			// examples (the paper's batched learning of DPR functions,
			// §3.2.1). Unscaled magnitudes (e.g. capital_loss in the
			// thousands) destabilize SGD.
			for ci, col := range cols {
				var vals []float64
				for _, v := range col.Values {
					if v.IsNumber {
						vals = append(vals, v.Num)
					}
				}
				if len(vals) != len(col.Values) {
					continue // categorical column
				}
				sc, err := ml.FitStandardScaler(vals)
				if err != nil {
					continue
				}
				scaled := Column{Name: col.Name, Values: make([]ml.FeatureValue, len(col.Values))}
				for i, v := range col.Values {
					scaled.Values[i] = ml.Num(sc.Transform(v.Num))
				}
				cols[ci] = scaled
			}
			raw := make([]ml.RawFeatures, len(rs))
			for i := range rs {
				rf := make(ml.RawFeatures, nf)
				for _, col := range cols {
					if i < len(col.Values) {
						rf[col.Name] = col.Values[i]
					}
				}
				raw[i] = rf
			}
			fs := ml.FitFeatureSpace(raw)
			ds := &ml.Dataset{Dim: fs.Dim(), Examples: make([]ml.Example, len(rs))}
			for i := range rs {
				ds.Examples[i] = ml.Example{
					X:     fs.Vectorize(raw[i]),
					Y:     labels.Values[i].Num,
					Train: rs[i].Train,
				}
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

// parseCSVParallel parses a header-led CSV text on the dataflow substrate,
// distributing row parsing across the environment's workers (the loop
// fusion + parallelism the paper gets from Spark).
func parseCSVParallel(env *collection.Env, text string) ([]data.Row, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, fmt.Errorf("census: empty CSV input")
	}
	header := strings.Split(lines[0], ",")
	type parsed struct {
		row data.Row
		err error
	}
	coll := collection.Map(collection.New(env, lines[1:]), func(line string) parsed {
		if line == "" {
			return parsed{}
		}
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			return parsed{err: fmt.Errorf("census: row has %d fields, want %d", len(fields), len(header))}
		}
		r := make(data.Row, len(header))
		for j, c := range header {
			r[c] = fields[j]
		}
		return parsed{row: r}
	})
	all := coll.Collect()
	rows := make([]data.Row, 0, len(all))
	for _, p := range all {
		if p.err != nil {
			return nil, p.err
		}
		if p.row != nil {
			rows = append(rows, p.row)
		}
	}
	return rows, nil
}

// fieldExtractor returns the Func for a simple per-row field extractor,
// executed data-parallel on the workload's environment.
func fieldExtractor(env *collection.Env, field string) helix.Func {
	numeric := numericCensusFields[field]
	return func(ctx context.Context, in []helix.Value) (helix.Value, error) {
		rs := in[0].([]TaggedRow)
		type extracted struct {
			v   ml.FeatureValue
			err error
		}
		vals := collection.Map(collection.New(env.On(clock.From(ctx)), rs), func(r TaggedRow) extracted {
			raw := r.Row[field]
			if numeric {
				f, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return extracted{err: fmt.Errorf("census: field %s: %w", field, err)}
				}
				return extracted{v: ml.Num(f)}
			}
			return extracted{v: ml.Cat(raw)}
		}).Collect()
		out := Column{Name: field, Values: make([]ml.FeatureValue, len(vals))}
		for i, e := range vals {
			if e.err != nil {
				return nil, e.err
			}
			out.Values[i] = e.v
		}
		return out, nil
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
