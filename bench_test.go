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
	"math"
	"math/rand"
	"testing"

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
				plan := opt.OptimalStates(d, costs)
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

// BenchmarkSubstrate_LogisticRegression times the census learner.
func BenchmarkSubstrate_LogisticRegression(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := &ml.Dataset{Dim: 40}
	for i := 0; i < 4000; i++ {
		elems := map[int]float64{}
		for j := 0; j < 8; j++ {
			elems[rng.Intn(40)] = rng.NormFloat64()
		}
		y := 0.0
		if rng.Float64() < 0.5 {
			y = 1
		}
		ds.Examples = append(ds.Examples, ml.Example{X: ml.Sparse(40, elems), Y: y, Train: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ml.LogisticRegression{RegParam: 0.1, Epochs: 5, Seed: 1}).Fit(ds); err != nil {
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
