package helix_test

// Micro-benchmarks of the substrate the paper's workloads run on: the
// OPT-EXEC-PLAN solver and the operators that dominate Figure 6's
// breakdowns. The paper's tables and figures themselves are model-time
// results, not Go benchmarks: `go run ./cmd/helixrun -paper` prints them,
// internal/sim/testdata/paper.golden pins them, and `sh benchmark/run.sh`
// measures the end-to-end workloads on the host. Run these with:
//
//	go test -run '^$' -bench . -benchmem

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"helix"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/nlp"
	"helix/internal/opt"
	"helix/internal/store"
)

// BenchmarkOEPSolver times the MAX-FLOW-based optimal execution planner
// itself (Algorithm 1) on random DAGs of increasing size — the
// compile-time cost HELIX pays per iteration.
func BenchmarkOEPSolver(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(itoa(n)+"nodes", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := core.NewDAG()
			nodes := make([]*core.Node, n)
			for i := range nodes {
				nodes[i] = d.MustAddNode("n"+itoa(i), core.KindExtractor, core.DPR, "op", true)
				if i > 0 {
					if err := d.AddEdge(nodes[i-1], nodes[i]); err != nil {
						b.Fatal(err)
					}
					for j := 0; j < i-1; j++ {
						if rng.Float64() < 4.0/float64(n) {
							if err := d.AddEdge(nodes[j], nodes[i]); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
			d.MarkOutput(nodes[n-1])
			costs := make(map[*core.Node]opt.Costs, n)
			for _, node := range nodes {
				c := opt.Costs{Compute: rng.Float64() * 10}
				if rng.Float64() < 0.5 {
					c.Load = rng.Float64() * 10
				} else {
					c.Load = math.Inf(1)
				}
				costs[node] = c
			}
			c := costs[nodes[n-1]]
			c.Required = true
			costs[nodes[n-1]] = c
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan := new(opt.Solver).OptimalStates(d, costs)
				if len(plan.States) != n {
					b.Fatal("incomplete plan")
				}
			}
		})
	}
}

// BenchmarkSubstrate_Word2Vec times the embedding learner on the
// genomics-scale corpus (the dominant operator of Figure 6b).
func BenchmarkSubstrate_Word2Vec(b *testing.B) {
	articles, _ := data.GenerateGenomics(data.GenomicsConfig{
		Articles: 100, SentencesPerArticle: 8, Genes: 60, Functions: 6, Seed: 1,
	})
	var sentences [][]string
	for _, a := range articles {
		for _, s := range nlp.SplitSentences(a.Text) {
			if toks := nlp.Tokenize(s); len(toks) > 0 {
				sentences = append(sentences, toks)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ml.Word2Vec{Dim: 24, Epochs: 1, Seed: 1}).Fit(sentences); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_NLPParse times the CoreNLP-stand-in parse at the IE
// workload's calibrated cost (the dominant operator of Figure 6c).
func BenchmarkSubstrate_NLPParse(b *testing.B) {
	articles, _ := data.GenerateIE(data.IEConfig{
		Articles: 50, SentencesPerArticle: 8, People: 40, SpousePairs: 15, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range articles {
			_ = nlp.Parse(a.ID, a.Text, 40)
		}
	}
}

// censusDataset is the dataset the census workflow's learner fits at the
// repo benchmark's scale (census-iter, Scale{Rows: 5}: 20 000 training and
// 5 000 test rows), assembled as the workflow's first version assembles
// it: education, occupation, their interaction and a 10-bin age bucket as
// categories, capital_loss and hours_per_week standardized, vectorized by
// column into slab-backed sparse rows.
func censusDataset(b *testing.B) *ml.Dataset {
	train, test := data.GenerateCensusCSV(data.CensusConfig{TrainRows: 20_000, TestRows: 5_000, Seed: 1})
	tab, counts, err := data.ParseCSV(nil, train, test)
	if err != nil {
		b.Fatal(err)
	}
	cells := func(name string) []string {
		c, err := tab.Col(name)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	numbers := func(name string) []float64 {
		out := make([]float64, tab.Rows())
		for i, c := range cells(name) {
			if out[i], err = strconv.ParseFloat(c, 64); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	standardized := func(name string) []ml.FeatureValue {
		xs := numbers(name)
		sc, err := ml.FitStandardScaler(xs)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]ml.FeatureValue, len(xs))
		for i, x := range xs {
			out[i] = ml.Num(sc.Transform(x))
		}
		return out
	}
	categories := func(name string) []ml.FeatureValue {
		out := make([]ml.FeatureValue, tab.Rows())
		for i, c := range cells(name) {
			out[i] = ml.Cat(c)
		}
		return out
	}
	ages := numbers("age")
	bk, err := ml.FitBucketizer(ages, 10)
	if err != nil {
		b.Fatal(err)
	}
	ageBucket := make([]ml.FeatureValue, len(ages))
	for i, a := range ages {
		ageBucket[i] = ml.Cat("b" + strconv.Itoa(int(bk.Transform(a))))
	}
	edu, occ := cells("education"), cells("occupation")
	eduXocc := make([]ml.FeatureValue, len(edu))
	for i := range edu {
		eduXocc[i] = ml.Cat(edu[i] + "|" + occ[i])
	}
	names := []string{"education", "occupation", "capital_loss", "hours_per_week", "ageBucket", "eduXocc"}
	cols := [][]ml.FeatureValue{categories("education"), categories("occupation"),
		standardized("capital_loss"), standardized("hours_per_week"), ageBucket, eduXocc}
	fs := ml.FitFeatureSpaceColumns(names, cols)
	xs := fs.VectorizeColumns(names, cols)
	ds := &ml.Dataset{Dim: fs.Dim(), Examples: make([]ml.Example, len(xs))}
	for i, target := range cells("target") {
		y := 0.0
		if target == ">50K" {
			y = 1
		}
		ds.Examples[i] = ml.Example{X: &xs[i], Y: y, Train: i < counts[0]}
	}
	return ds
}

// BenchmarkSubstrate_LogisticRegression times the census learner: the
// census workflow's fit (regParam 0.1, 15 epochs) on census-iter's rows.
func BenchmarkSubstrate_LogisticRegression(b *testing.B) {
	ds := censusDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ml.LogisticRegression{RegParam: 0.1, Epochs: 15, Seed: 1}).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// digitsDataset is the MNIST workflow's pixel dataset at test scale: 1 900
// images of 16×16 (256 dense features).
func digitsDataset() *ml.Dataset {
	imgs := data.GenerateDigits(data.DigitsConfig{TrainImages: 1500, TestImages: 400, Side: 16, Seed: 1})
	ds := &ml.Dataset{Dim: 256, Examples: make([]ml.Example, len(imgs))}
	for i, im := range imgs {
		ds.Examples[i] = ml.Example{X: ml.DenseVector(im.Pixels), Y: float64(im.Label), Train: im.Train}
	}
	return ds
}

// BenchmarkSubstrate_RFFProject times the MNIST workflow's random Fourier
// projection (256 → 192 features), the operator that dominates its
// computed iterations and can never be reused (Figure 6d).
func BenchmarkSubstrate_RFFProject(b *testing.B) {
	ds := digitsDataset()
	proj, err := ml.NewRFF(ds.Dim, 192, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = proj.ProjectDataset(ds)
	}
}

// BenchmarkSubstrate_SoftmaxFit times the MNIST workflow's learner on the
// projected features, at the workflow's initial knobs.
func BenchmarkSubstrate_SoftmaxFit(b *testing.B) {
	proj, err := ml.NewRFF(256, 192, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds := proj.ProjectDataset(digitsDataset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ml.SoftmaxRegression{Classes: 10, RegParam: 0.01, Epochs: 12, LearningRate: 0.5, Seed: 7}).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_StoreRoundTrip times a materialize+load cycle of a
// census-sized intermediate through the store's default HXB1 codec.
func BenchmarkSubstrate_StoreRoundTrip(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]float64, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := "k" + itoa(i%8)
		if _, err := st.Put(key, "bench", payload, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_StoreLoad times one Get of a 6.6 MB []float64 — the
// artifact rowstream-ingest's small iterations load — from a store whose
// file sits in the page cache. The file is read straight into the slice
// Get returns, so B/op stays near the value's own 8 bytes per element.
func BenchmarkSubstrate_StoreLoad(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]float64, 825_000)
	for i := range payload {
		payload[i] = float64(i) / 3
	}
	e, err := st.Put("keep", "keep", payload, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(e.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Get("keep"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallEdit times one Session.Run — compile included — of a
// workflow shaped like the repo benchmark's plan-wide (50 layers × 20
// operators, each reading five of the layer below; the last layer is
// output) whose operators return a constant, after a cold run that
// materialized every node. What is left is the engine's own per-iteration
// cost: "noop" reruns the same workflow (a plan-cache hit), "leaf-edit"
// gives one output a new params string every run (a cold plan: that node
// computed, its five parents and the other outputs loaded).
// plan-ns/op is Result.PlanTime.
func BenchmarkSmallEdit(b *testing.B) {
	const layers, width, fanIn = 50, 20, 5
	// Each operator returns a constant after ~100 µs of arithmetic: enough
	// that the solver loads a materialized node rather than recompute its
	// ancestry (a load is priced at ~1 ms), as on plan-wide.
	constant := func(context.Context, []helix.Value) (helix.Value, error) {
		x := 0.0
		for i := 0; i < 100000; i++ {
			x += float64(i) * 1e-9
		}
		if x < 0 {
			return nil, fmt.Errorf("negative sum")
		}
		return 1.0, nil
	}
	build := func(leaf int) *helix.Workflow {
		wf := helix.New("small-edit")
		prev := make([]*helix.Op, width)
		cur := make([]*helix.Op, width)
		for l := 0; l < layers; l++ {
			for w := 0; w < width; w++ {
				name, params := fmt.Sprintf("n%d_%d", l, w), "v0"
				if l == layers-1 && w == 0 {
					params = fmt.Sprintf("v%d", leaf)
				}
				if l == 0 {
					cur[w] = wf.Source(name, params, constant)
					continue
				}
				ins := make([]*helix.Op, fanIn)
				for k := range ins {
					ins[k] = prev[(w+k)%width]
				}
				cur[w] = wf.Extractor(name, params, constant, ins...)
				if l == layers-1 {
					cur[w].IsOutput()
				}
			}
			prev, cur = cur, prev
		}
		return wf
	}
	for _, bc := range []struct {
		name string
		edit bool // bump the leaf's version on every run
	}{{"noop", false}, {"leaf-edit", true}} {
		b.Run(bc.name, func(b *testing.B) {
			sess, err := helix.Open(b.TempDir(), helix.WithPolicy(helix.PolicyAlways))
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			version := 0
			run := func() *helix.Result {
				if bc.edit {
					version++
				}
				res, err := sess.Run(ctx, build(version))
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			// The cold run, then one warm run so the timed ones start
			// from a steady state.
			run()
			run()
			var plan time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan += run().PlanTime
			}
			b.ReportMetric(float64(plan)/float64(b.N), "plan-ns/op")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
