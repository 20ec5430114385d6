package workloads

import (
	"context"
	"fmt"

	"helix"
	"helix/internal/collection"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/nlp"
)

// GenomicsCorpus bundles the literature corpus with the gene knowledge
// base (the workflow's two data sources, Table 2: "Multiple").
type GenomicsCorpus struct {
	Articles []data.Article
	KB       *data.GeneKB
}

// ApproxBytes implements the engine's Sizer.
func (g GenomicsCorpus) ApproxBytes() int64 {
	var b int64 = 32
	for _, a := range g.Articles {
		b += int64(len(a.ID) + len(a.Text))
	}
	if g.KB != nil {
		b += int64(len(g.KB.Genes) * 16)
	}
	return b
}

// Genomics is the gene-function-prediction workflow of Example 1: parse
// literature, identify gene mentions by joining with a knowledge base,
// learn word embeddings, cluster gene vectors, and summarize clusters.
// Both learning steps are unsupervised (Table 2).
type Genomics struct {
	ScaleCfg Scale
	Seed     int64

	// Knobs.
	articles     int
	minSentences int     // DPR knob: corpus expansion/shrinkage
	lowercase    bool    // DPR knob: tokenization variant
	embedDim     int     // L/I knob: embedding dimensionality
	embedAlgo    string  // L/I knob: "word2vec" or "line" (Example 1 iv)
	clusters     int     // L/I knob: K (Example 1 v)
	topMembers   int     // PPR knob: cluster summary size
	_            float64 // reserved
}

// NewGenomics returns the workload at its initial version.
func NewGenomics(scale Scale, seed int64) *Genomics {
	return &Genomics{
		ScaleCfg:     scale,
		Seed:         seed,
		articles:     scale.rows(300),
		minSentences: 8,
		lowercase:    true,
		embedDim:     24,
		embedAlgo:    "word2vec",
		clusters:     6,
		topMembers:   5,
	}
}

// Name implements Workload.
func (g *Genomics) Name() string { return "genomics" }

// Sequence implements Workload: a natural-sciences mixture of DPR and L/I
// iterations with occasional PPR, matching Figure 5(b)/6(b); the model
// change at iteration 4 leaves the expensive embedding learner unchanged
// so it can be pruned (paper §6.5.2: "one of the ML models takes
// considerably more time, and HELIX OPT is able to prune it in iteration
// 4 since it is not changed").
func (g *Genomics) Sequence() []core.Component {
	return []core.Component{
		core.DPR, core.LI, core.DPR, core.PPR, core.LI,
		core.PPR, core.LI, core.DPR, core.LI, core.PPR,
	}
}

// Mutate implements Workload.
func (g *Genomics) Mutate(iteration int, comp core.Component) {
	switch comp {
	case core.DPR:
		switch iteration % 2 {
		case 0:
			// Expand/shrink the literature corpus (Example 1 i).
			if g.articles == g.ScaleCfg.rows(300) {
				g.articles = g.ScaleCfg.rows(360)
			} else {
				g.articles = g.ScaleCfg.rows(300)
			}
		default:
			// Try a different tokenization (Example 1 iii).
			g.lowercase = !g.lowercase
		}
	case core.LI:
		switch iteration % 3 {
		case 0:
			// Change the embedding algorithm (Example 1 iv).
			if g.embedAlgo == "word2vec" {
				g.embedAlgo = "line"
			} else {
				g.embedAlgo = "word2vec"
			}
		case 1:
			// Tweak the number of clusters (Example 1 v). Changes only the
			// cheap clustering learner; the expensive embedding learner is
			// untouched and prunable.
			if g.clusters == 6 {
				g.clusters = 8
			} else {
				g.clusters = 6
			}
		default:
			if g.embedDim == 24 {
				g.embedDim = 32
			} else {
				g.embedDim = 24
			}
		}
	case core.PPR:
		if g.topMembers == 5 {
			g.topMembers = 8
		} else {
			g.topMembers = 5
		}
	}
}

// Build implements Workload.
func (g *Genomics) Build() *helix.Workflow {
	wf := helix.New("genomics")

	nArticles, sentences := g.articles, g.minSentences
	seed := g.Seed
	src := wf.Source("corpus", fmt.Sprintf("genomics articles=%d sentences=%d seed=%d", nArticles, sentences, seed),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			articles, kb := data.GenerateGenomics(data.GenomicsConfig{
				Articles:            nArticles,
				SentencesPerArticle: sentences,
				Genes:               60,
				Functions:           6,
				Seed:                seed,
			})
			return GenomicsCorpus{Articles: articles, KB: kb}, nil
		})

	lower := g.lowercase
	tokens := wf.Scanner("tokens", fmt.Sprintf("tokenize lowercase=%v", lower),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			corpus := in[0].(GenomicsCorpus)
			var out [][]string
			for _, a := range corpus.Articles {
				for _, s := range nlp.SplitSentences(a.Text) {
					toks := nlp.Tokenize(s)
					if !lower {
						// Identity variant: tokenization already lowercases;
						// model the "different NLP library" as a light
						// re-casing pass that preserves token identity for
						// downstream joins.
						for i := range toks {
							toks[i] = toks[i] + ""
						}
					}
					if len(toks) > 0 {
						out = append(out, toks)
					}
				}
			}
			return out, nil
		}, src)

	// geneMentions: join token stream against the knowledge base
	// (Example 1: "identified by joining with a genomic knowledge base"),
	// expressed on the dataflow substrate: flatten, filter by KB
	// membership, dedupe.
	mentions := wf.Synthesizer("geneMentions", "join(tokens, geneKB)",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			sentences := in[0].([][]string)
			corpus := in[1].(GenomicsCorpus)
			env := collection.DefaultEnv()
			flat := collection.FlatMap(collection.New(env, sentences), func(s []string) []string {
				var hits []string
				for _, t := range s {
					if _, ok := corpus.KB.Genes[t]; ok {
						hits = append(hits, t)
					}
				}
				return hits
			})
			genes := collection.Distinct(flat, func(g string) string { return g }).Collect()
			return genes, nil
		}, tokens, src)

	// embeddings: the expensive unsupervised embedding learner.
	dim, algo := g.embedDim, g.embedAlgo
	embeddings := wf.Learner("embeddings", fmt.Sprintf("Embedding(algo=%s, dim=%d)", algo, dim),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			sentences := in[0].([][]string)
			w2v := ml.Word2Vec{Dim: dim, Epochs: 3, Seed: 11}
			if algo == "line" {
				// LINE's second-order proximity is approximated by a
				// narrower window and more negative samples.
				w2v.Window = 1
				w2v.Negatives = 8
			}
			return w2v.Fit(sentences)
		}, tokens)

	// geneVectors: dataset of embedding vectors for mentioned genes.
	geneVectors := wf.Synthesizer("geneVectors", "examples(gene embeddings)",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			genes := in[0].([]string)
			emb := in[1].(*ml.Embeddings)
			ds := &ml.Dataset{Dim: emb.Dim}
			for _, gene := range genes {
				if v, ok := emb.Vector(gene); ok {
					ds.Examples = append(ds.Examples, ml.Example{X: v, ID: gene, Train: true})
				}
			}
			if len(ds.Examples) == 0 {
				return nil, fmt.Errorf("genomics: no gene vectors found")
			}
			return ds, nil
		}, mentions, embeddings)

	// clusters: k-means over gene vectors.
	k := g.clusters
	clusters := wf.Learner("clusters", fmt.Sprintf("KMeans(K=%d)", k),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			ds := in[0].(*ml.Dataset)
			kk := k
			if kk > len(ds.Examples) {
				kk = len(ds.Examples)
			}
			return ml.KMeans{K: kk, Seed: 13}.Fit(ds)
		}, geneVectors)

	// clusterSummary: qualitative PPR output.
	top := g.topMembers
	wf.Reducer("clusterSummary", fmt.Sprintf("summary(top=%d)", top),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			model := in[0].(*ml.KMeansModel)
			ds := in[1].(*ml.Dataset)
			return ml.SummarizeClusters(model, ds, top), nil
		}, clusters, geneVectors).
		IsOutput()

	return wf
}
