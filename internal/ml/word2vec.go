package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Word2Vec learns word embeddings via skip-gram with negative sampling —
// the embedding learner of the genomics workflow (paper Example 1:
// "compute embeddings using an approach like word2vec"). It is a compact
// reimplementation of Mikolov et al.'s SGNS objective, deterministic given
// a seed.
type Word2Vec struct {
	// Dim is the embedding dimensionality; 0 selects 32.
	Dim int
	// Window is the one-sided context window; 0 selects 4.
	Window int
	// Negatives is the number of negative samples per positive; 0 selects 5.
	Negatives int
	// Epochs is the number of passes over the corpus; 0 selects 3.
	Epochs int
	// LearningRate is the initial SGD step; 0 selects 0.025.
	LearningRate float64
	// MinCount drops words rarer than this from the vocabulary; 0 selects 2.
	MinCount int
	// Seed drives all sampling.
	Seed int64
}

// Embeddings maps each vocabulary word to its learned vector.
type Embeddings struct {
	Dim     int
	Vectors map[string]DenseVector
}

// Vector returns the embedding for word and whether it is in vocabulary.
func (e *Embeddings) Vector(word string) (DenseVector, bool) {
	v, ok := e.Vectors[word]
	return v, ok
}

// Similarity returns the cosine similarity of two words, or 0 if either is
// out of vocabulary.
func (e *Embeddings) Similarity(a, b string) float64 {
	va, oka := e.Vectors[a]
	vb, okb := e.Vectors[b]
	if !oka || !okb {
		return 0
	}
	na, nb := va.Norm2(), vb.Norm2()
	if na == 0 || nb == 0 {
		return 0
	}
	return va.Dot(vb) / (na * nb)
}

// MostSimilar returns the k in-vocabulary words closest to word by cosine
// similarity, excluding word itself, in decreasing order.
func (e *Embeddings) MostSimilar(word string, k int) []string {
	v, ok := e.Vectors[word]
	if !ok || k <= 0 {
		return nil
	}
	type cand struct {
		w string
		s float64
	}
	cands := make([]cand, 0, len(e.Vectors))
	nv := v.Norm2()
	for w, u := range e.Vectors {
		if w == word {
			continue
		}
		nu := u.Norm2()
		if nu == 0 || nv == 0 {
			continue
		}
		cands = append(cands, cand{w, v.Dot(u) / (nv * nu)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].w < cands[j].w
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].w
	}
	return out
}

// ApproxBytes implements the engine's Sizer.
func (e *Embeddings) ApproxBytes() int64 {
	var b int64 = 16
	for w, v := range e.Vectors {
		b += int64(len(w)) + int64(8*len(v))
	}
	return b
}

// Fit trains embeddings over sentences (each a slice of tokens).
func (w2v Word2Vec) Fit(sentences [][]string) (*Embeddings, error) {
	dim := w2v.Dim
	if dim <= 0 {
		dim = 32
	}
	window := w2v.Window
	if window <= 0 {
		window = 4
	}
	neg := w2v.Negatives
	if neg <= 0 {
		neg = 5
	}
	epochs := w2v.Epochs
	if epochs <= 0 {
		epochs = 3
	}
	rate := w2v.LearningRate
	if rate <= 0 {
		rate = 0.025
	}
	minCount := w2v.MinCount
	if minCount <= 0 {
		minCount = 2
	}

	// Vocabulary with counts.
	counts := make(map[string]int)
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	words := make([]string, 0, len(counts))
	for w, c := range counts {
		if c >= minCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("ml: word2vec: vocabulary empty (min count %d)", minCount)
	}
	sort.Strings(words) // deterministic ids
	id := make(map[string]int, len(words))
	for i, w := range words {
		id[w] = i
	}
	v := len(words)

	// Unigram^0.75 table for negative sampling.
	cum := make([]float64, v)
	var z float64
	for i, w := range words {
		z += math.Pow(float64(counts[w]), 0.75)
		cum[i] = z
	}

	rng := rand.New(rand.NewSource(w2v.Seed))
	in := make([]DenseVector, v)  // input (word) vectors
	out := make([]DenseVector, v) // output (context) vectors
	for i := 0; i < v; i++ {
		in[i] = make(DenseVector, dim)
		for j := range in[i] {
			in[i][j] = (rng.Float64() - 0.5) / float64(dim)
		}
		out[i] = make(DenseVector, dim)
	}
	sampleNeg := func() int {
		r := rng.Float64() * z
		return sort.SearchFloat64s(cum, r)
	}

	gradIn := make(DenseVector, dim)
	var ids []int
	for ep := 0; ep < epochs; ep++ {
		step := rate / (1 + 0.5*float64(ep))
		for _, sent := range sentences {
			// Map to ids, dropping out-of-vocabulary tokens.
			ids = ids[:0]
			for _, w := range sent {
				if i, ok := id[w]; ok {
					ids = append(ids, i)
				}
			}
			for pos, center := range ids {
				lo := pos - window
				if lo < 0 {
					lo = 0
				}
				hi := pos + window
				if hi >= len(ids) {
					hi = len(ids) - 1
				}
				for cpos := lo; cpos <= hi; cpos++ {
					if cpos == pos {
						continue
					}
					ctx := ids[cpos]
					for i := range gradIn {
						gradIn[i] = 0
					}
					// Positive pair.
					sgnsUpdate(in[center], out[ctx], 1, step, gradIn)
					// Negative samples.
					for s := 0; s < neg; s++ {
						n := sampleNeg()
						if n == ctx {
							continue
						}
						sgnsUpdate(in[center], out[n], 0, step, gradIn)
					}
					axpy(in[center], 1, gradIn)
				}
			}
		}
	}

	emb := &Embeddings{Dim: dim, Vectors: make(map[string]DenseVector, v)}
	for i, w := range words {
		emb.Vectors[w] = in[i]
	}
	return emb, nil
}

// sgnsUpdate applies one SGNS gradient step for pair (w, c) with label y,
// updating the context vector in place and accumulating the input-vector
// gradient into gradIn (applied by the caller after all samples).
func sgnsUpdate(w, c DenseVector, y float64, step float64, gradIn DenseVector) {
	g := (sigmoid(dot(w, c)) - y) * step
	for i := range c {
		gradIn[i] -= g * c[i]
		c[i] -= g * w[i]
	}
}
