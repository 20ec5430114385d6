package workloads

import (
	"context"
	"fmt"
	"strings"

	"helix"
	"helix/internal/collection"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/nlp"
)

// IECorpus bundles the news corpus with the spouse knowledge base.
type IECorpus struct {
	Articles []data.Article
	KB       *data.SpouseKB
}

// ApproxBytes implements the engine's Sizer.
func (c IECorpus) ApproxBytes() int64 {
	var b int64 = 32
	for _, a := range c.Articles {
		b += int64(len(a.ID) + len(a.Text))
	}
	if c.KB != nil {
		b += int64(len(c.KB.Pairs) * 24)
	}
	return b
}

// Candidate is one person-pair mention: the sentence, the pair, and the
// token span between the two mentions — the unit of the IE workflow's
// one-to-many input→example mapping (Table 2).
type Candidate struct {
	A, B    string
	Between []string
	POSSeq  []string
	Label   float64
}

// IE is the spouse-extraction workflow from DeepDive's example (paper
// §6.2): an expensive NLP parse, candidate pair extraction, distant
// supervision against a knowledge base, fine-grained linguistic features,
// and a logistic-regression extractor evaluated by F1. Its iteration
// schedule is all-DPR (paper Figure 5c runs 6 iterations, "NLP, which has
// only DPR iterations").
type IE struct {
	Seed int64

	articles   int
	parseCost  int    // calibrated NLP parse expense
	window     int    // DPR knob: max tokens between pair mentions
	featureSet string // DPR knob: "words", "words+pos", "words+pos+bigrams"
	regParam   float64
}

// NewIE returns the workload at its initial version.
func NewIE(scale Scale, seed int64) *IE {
	cost := scale.CostFactor
	if cost <= 0 {
		cost = 40
	}
	return &IE{
		Seed:       seed,
		articles:   scale.rows(200),
		parseCost:  cost,
		window:     6,
		featureSet: "words",
		regParam:   0.1,
	}
}

// Name implements Workload.
func (w *IE) Name() string { return "nlp" }

// Sequence implements Workload: six all-DPR iterations (Figure 5c).
func (w *IE) Sequence() []core.Component {
	return []core.Component{core.DPR, core.DPR, core.DPR, core.DPR, core.DPR, core.DPR}
}

// Mutate implements Workload. All mutations touch candidate extraction or
// featurization, never the parse — so the expensive parse stays reusable,
// the property Figure 5(c) exercises.
func (w *IE) Mutate(iteration int, comp core.Component) {
	if comp != core.DPR {
		comp = core.DPR // the IE schedule is all DPR
	}
	switch iteration % 3 {
	case 0:
		switch w.featureSet {
		case "words":
			w.featureSet = "words+pos"
		case "words+pos":
			w.featureSet = "words+pos+bigrams"
		default:
			w.featureSet = "words"
		}
	case 1:
		if w.window == 6 {
			w.window = 8
		} else {
			w.window = 6
		}
	default:
		w.featureSet = rotateFeatureSet(w.featureSet)
	}
}

func rotateFeatureSet(fs string) string {
	switch fs {
	case "words":
		return "words+pos+bigrams"
	case "words+pos":
		return "words"
	default:
		return "words+pos"
	}
}

// Build implements Workload.
func (w *IE) Build() *helix.Workflow {
	wf := helix.New("nlp")

	nArticles, seed := w.articles, w.Seed
	src := wf.Source("news", fmt.Sprintf("news articles=%d seed=%d", nArticles, seed),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			articles, kb := data.GenerateIE(data.IEConfig{
				Articles:            nArticles,
				SentencesPerArticle: 8,
				People:              40,
				SpousePairs:         15,
				Seed:                seed,
			})
			return IECorpus{Articles: articles, KB: kb}, nil
		})

	// parsedDocs: the time-consuming NLP parse whose results are reusable
	// across every subsequent iteration (paper §6.5.2).
	cost := w.parseCost
	parsed := wf.Scanner("parsedDocs", fmt.Sprintf("CoreNLP-parse cost=%d", cost),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			corpus := in[0].(IECorpus)
			// Parse articles data-parallel on the substrate — the shape of
			// running CoreNLP inside Spark map tasks.
			docs := collection.Map(collection.New(collection.DefaultEnv(), corpus.Articles),
				func(a data.Article) nlp.Document {
					return nlp.Parse(a.ID, a.Text, cost)
				}).Collect()
			return docs, nil
		}, src)

	// candidates: person-pair extraction with distant supervision.
	window := w.window
	candidates := wf.Scanner("candidates", fmt.Sprintf("pairExtractor window=%d", window),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			docs := in[0].([]nlp.Document)
			corpus := in[1].(IECorpus)
			var out []Candidate
			for _, d := range docs {
				for _, s := range d.Sentences {
					out = append(out, extractPairs(s, corpus.KB, window)...)
				}
			}
			if len(out) == 0 {
				return nil, fmt.Errorf("ie: no candidate pairs extracted")
			}
			return out, nil
		}, parsed, src)

	// examples: featurize candidates (fine-grained features, Table 2).
	featureSet := w.featureSet
	examples := wf.Synthesizer("examples", "features="+featureSet,
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			cands := in[0].([]Candidate)
			raw := make([]ml.RawFeatures, len(cands))
			for i, c := range cands {
				raw[i] = featurizeCandidate(c, featureSet)
			}
			fs := ml.FitFeatureSpace(raw)
			ds := &ml.Dataset{Dim: fs.Dim(), Examples: make([]ml.Example, len(cands))}
			for i, c := range cands {
				ds.Examples[i] = ml.Example{
					X:     fs.Vectorize(raw[i]),
					Y:     c.Label,
					Train: i%5 != 0, // held-out fifth for evaluation
					ID:    data.PairKey(c.A, c.B),
				}
			}
			return ds, nil
		}, candidates)

	reg := w.regParam
	predictions := wf.Learner("spousePred", fmt.Sprintf("Learner(LR, regParam=%g)", reg),
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			ds := in[0].(*ml.Dataset)
			model, err := ml.LogisticRegression{RegParam: reg, Epochs: 15, Seed: 3}.Fit(ds)
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
		}, examples)

	wf.Reducer("f1", "Reducer(PRF1, split=test)",
		func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			p := in[0].(Predictions)
			var tp, fp, fn int
			for i := range p.Scores {
				if p.Train[i] {
					continue
				}
				pred := p.Scores[i] >= 0.5
				truth := p.Labels[i] >= 0.5
				switch {
				case pred && truth:
					tp++
				case pred && !truth:
					fp++
				case !pred && truth:
					fn++
				}
			}
			rep := EvalReport{Metrics: map[string]float64{}}
			if tp+fp > 0 {
				rep.Metrics["precision"] = float64(tp) / float64(tp+fp)
			}
			if tp+fn > 0 {
				rep.Metrics["recall"] = float64(tp) / float64(tp+fn)
			}
			if p, r := rep.Metrics["precision"], rep.Metrics["recall"]; p+r > 0 {
				rep.Metrics["f1"] = 2 * p * r / (p + r)
			}
			return rep, nil
		}, predictions).
		IsOutput()

	return wf
}

// extractPairs finds person-pair mentions within window tokens of each
// other in one sentence, labeling them by KB membership (distant
// supervision).
func extractPairs(s nlp.Sentence, kb *data.SpouseKB, window int) []Candidate {
	var people []int
	for i, t := range s {
		if data.IsPersonToken(t.Text) {
			people = append(people, i)
		}
	}
	var out []Candidate
	for i := 0; i < len(people); i++ {
		for j := i + 1; j < len(people); j++ {
			a, b := people[i], people[j]
			if b-a-1 > window {
				continue
			}
			c := Candidate{A: s[a].Text, B: s[b].Text}
			for k := a + 1; k < b; k++ {
				c.Between = append(c.Between, s[k].Text)
				c.POSSeq = append(c.POSSeq, s[k].POS)
			}
			if kb.Known(c.A, c.B) {
				c.Label = 1
			}
			out = append(out, c)
		}
	}
	return out
}

// featurizeCandidate builds the raw feature map for a candidate under the
// configured feature set.
func featurizeCandidate(c Candidate, featureSet string) ml.RawFeatures {
	rf := make(ml.RawFeatures, len(c.Between)*2+2)
	for _, w := range c.Between {
		rf["between:"+w] = ml.Num(1)
	}
	rf["gap"] = ml.Num(float64(len(c.Between)))
	if strings.Contains(featureSet, "pos") {
		for _, p := range c.POSSeq {
			rf["pos:"+p] = ml.Num(1)
		}
	}
	if strings.Contains(featureSet, "bigrams") {
		for i := 0; i+1 < len(c.Between); i++ {
			rf["bigram:"+c.Between[i]+"_"+c.Between[i+1]] = ml.Num(1)
		}
	}
	return rf
}
