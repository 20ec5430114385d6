package ml

import (
	"math"
	"math/rand"
	"testing"
)

// synthBinary generates a linearly separable binary dataset with margin.
func synthBinary(n, dim int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	d := &Dataset{Dim: dim}
	for i := 0; i < n; i++ {
		x := make(DenseVector, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		var dot float64
		for j := range x {
			dot += w[j] * x[j]
		}
		y := 0.0
		if dot > 0 {
			y = 1
		}
		d.Examples = append(d.Examples, Example{X: x, Y: y, Train: i%5 != 0})
	}
	return d
}

func TestLogisticRegressionLearnsSeparableData(t *testing.T) {
	d := synthBinary(800, 6, 1)
	m, err := LogisticRegression{RegParam: 0.001, Epochs: 30, Seed: 1}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	_, test := d.Split()
	if acc := BinaryAccuracy(m, test); acc < 0.9 {
		t.Fatalf("test accuracy %.3f < 0.9", acc)
	}
}

func TestLogisticRegressionDeterministicGivenSeed(t *testing.T) {
	d := synthBinary(200, 4, 2)
	m1, err := LogisticRegression{Seed: 7}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LogisticRegression{Seed: 7}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestLogisticRegressionRegularizationShrinksWeights(t *testing.T) {
	d := synthBinary(400, 5, 3)
	weak, err := LogisticRegression{RegParam: 0.0001, Seed: 1}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := LogisticRegression{RegParam: 1.0, Seed: 1}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if strong.W.Norm2() >= weak.W.Norm2() {
		t.Fatalf("strong reg norm %.4f ≥ weak reg norm %.4f", strong.W.Norm2(), weak.W.Norm2())
	}
}

func TestLogisticRegressionNoTrainingData(t *testing.T) {
	d := &Dataset{Dim: 2, Examples: []Example{{X: Dense(1, 2), Y: math.NaN(), Train: true}}}
	if _, err := (LogisticRegression{}).Fit(d); err == nil {
		t.Fatal("expected error on unlabeled data")
	}
}

func TestSoftmaxLearnsThreeClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := &Dataset{Dim: 2}
	centers := [][2]float64{{0, 4}, {4, -4}, {-4, -4}}
	for i := 0; i < 600; i++ {
		k := i % 3
		x := Dense(centers[k][0]+rng.NormFloat64(), centers[k][1]+rng.NormFloat64())
		d.Examples = append(d.Examples, Example{X: x, Y: float64(k), Train: i%5 != 0})
	}
	m, err := SoftmaxRegression{Classes: 3, Seed: 4}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	_, test := d.Split()
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Fatalf("softmax accuracy %.3f < 0.9", acc)
	}
}

func TestSoftmaxRejectsBadConfig(t *testing.T) {
	if _, err := (SoftmaxRegression{Classes: 1}).Fit(&Dataset{}); err == nil {
		t.Fatal("expected error for 1 class")
	}
	d := &Dataset{Dim: 1, Examples: []Example{{X: Dense(1), Y: 5, Train: true}}}
	if _, err := (SoftmaxRegression{Classes: 3}).Fit(d); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

func TestKMeansRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := &Dataset{Dim: 2}
	centers := [][2]float64{{0, 10}, {10, 0}, {-10, -10}}
	for i := 0; i < 300; i++ {
		k := i % 3
		x := Dense(centers[k][0]+rng.NormFloat64()*0.5, centers[k][1]+rng.NormFloat64()*0.5)
		d.Examples = append(d.Examples, Example{X: x, Y: float64(k)})
	}
	m, err := KMeans{K: 3, Seed: 5}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	// Every true cluster must map to exactly one centroid.
	seen := make(map[int]int)
	for _, e := range d.Examples {
		c, _ := m.Assign(e.X)
		if prev, ok := seen[int(e.Y)]; ok && prev != c {
			t.Fatalf("true cluster %v split across centroids %d and %d", e.Y, prev, c)
		}
		seen[int(e.Y)] = c
	}
	if len(seen) != 3 {
		t.Fatalf("found %d clusters, want 3", len(seen))
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := &Dataset{Dim: 3}
	for i := 0; i < 200; i++ {
		d.Examples = append(d.Examples, Example{X: Dense(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())})
	}
	m1, err := KMeans{K: 1, Seed: 6}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := KMeans{K: 8, Seed: 6}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if m8.Inertia(d) >= m1.Inertia(d) {
		t.Fatalf("K=8 inertia %.2f ≥ K=1 inertia %.2f", m8.Inertia(d), m1.Inertia(d))
	}
}

func TestKMeansRejectsBadConfig(t *testing.T) {
	if _, err := (KMeans{K: 0}).Fit(&Dataset{Examples: []Example{{X: Dense(1)}}}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := (KMeans{K: 5}).Fit(&Dataset{Examples: []Example{{X: Dense(1)}}}); err == nil {
		t.Fatal("expected error for K > n")
	}
	if _, err := (KMeans{K: 1}).Fit(&Dataset{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestWord2VecGroupsCooccurringWords(t *testing.T) {
	// Two disjoint topic vocabularies; words within a topic co-occur.
	topicA := []string{"gene", "protein", "dna", "rna", "cell"}
	topicB := []string{"stock", "market", "price", "trade", "bond"}
	rng := rand.New(rand.NewSource(8))
	var sentences [][]string
	for i := 0; i < 400; i++ {
		topic := topicA
		if i%2 == 1 {
			topic = topicB
		}
		s := make([]string, 8)
		for j := range s {
			s[j] = topic[rng.Intn(len(topic))]
		}
		sentences = append(sentences, s)
	}
	emb, err := Word2Vec{Dim: 16, Epochs: 4, Seed: 8}.Fit(sentences)
	if err != nil {
		t.Fatal(err)
	}
	within := emb.Similarity("gene", "protein")
	across := emb.Similarity("gene", "stock")
	if within <= across {
		t.Fatalf("within-topic similarity %.3f ≤ across-topic %.3f", within, across)
	}
}

func TestWord2VecMostSimilar(t *testing.T) {
	sentences := [][]string{}
	for i := 0; i < 200; i++ {
		sentences = append(sentences, []string{"a", "b", "a", "b"}, []string{"x", "y", "x", "y"})
	}
	emb, err := Word2Vec{Dim: 8, Epochs: 3, Seed: 9}.Fit(sentences)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"x", "y"} {
		if emb.Similarity("a", "b") <= emb.Similarity("a", w) {
			t.Fatalf("similarity(a, b) = %.3f ≤ similarity(a, %s) = %.3f, want b closest to a",
				emb.Similarity("a", "b"), w, emb.Similarity("a", w))
		}
	}
}

func TestWord2VecEmptyVocabulary(t *testing.T) {
	if _, err := (Word2Vec{MinCount: 10}.Fit([][]string{{"once"}})); err == nil {
		t.Fatal("expected empty-vocabulary error")
	}
}

func TestWord2VecDeterministic(t *testing.T) {
	sentences := [][]string{{"a", "b", "c", "a", "b"}, {"b", "c", "a", "c"}}
	for i := 0; i < 3; i++ {
		sentences = append(sentences, sentences...)
	}
	e1, err := Word2Vec{Dim: 4, Seed: 3, MinCount: 1}.Fit(sentences)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Word2Vec{Dim: 4, Seed: 3, MinCount: 1}.Fit(sentences)
	if err != nil {
		t.Fatal(err)
	}
	for w, v1 := range e1.Vectors {
		v2 := e2.Vectors[w]
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatal("same seed produced different embeddings")
			}
		}
	}
}

func TestRFFApproximatesRBFKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dim := 5
	gamma := 0.5
	r, err := NewRFF(dim, 2048, gamma, 10)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		x := make(DenseVector, dim)
		y := make(DenseVector, dim)
		for i := 0; i < dim; i++ {
			x[i] = rng.NormFloat64() * 0.3
			y[i] = rng.NormFloat64() * 0.3
		}
		zx, zy := r.Project(x), r.Project(y)
		var sq float64
		for i := range x {
			d := x[i] - y[i]
			sq += d * d
		}
		kernel := math.Exp(-gamma * sq)
		if !almostEqual(zx.Dot(zy), kernel, 0.1) {
			t.Fatalf("RFF approximation %.3f vs kernel %.3f", zx.Dot(zy), kernel)
		}
	}
}

func TestRFFSeedChangesProjection(t *testing.T) {
	r1, _ := NewRFF(3, 16, 1, 1)
	r2, _ := NewRFF(3, 16, 1, 2)
	x := Dense(1, 2, 3)
	p1, p2 := r1.Project(x), r2.Project(x)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical projections")
	}
}

func TestRFFErrors(t *testing.T) {
	if _, err := NewRFF(0, 16, 1, 1); err == nil {
		t.Fatal("expected error for zero input dim")
	}
}

func TestRFFProjectDatasetPreservesMetadata(t *testing.T) {
	r, _ := NewRFF(2, 8, 1, 1)
	d := &Dataset{Dim: 2, Examples: []Example{{X: Dense(1, 2), Y: 1, Train: true, ID: "e1"}}}
	out := r.ProjectDataset(d)
	if out.Dim != 8 || len(out.Examples) != 1 {
		t.Fatal("projection shape wrong")
	}
	e := out.Examples[0]
	if e.Y != 1 || !e.Train || e.ID != "e1" {
		t.Fatal("metadata lost")
	}
}

// Accuracy returns the fraction of examples whose predicted class equals
// the label — the census workflow's checkResults reducer (paper Figure 3a,
// lines 17-18).
func Accuracy(m Model, d *Dataset) float64 {
	if len(d.Examples) == 0 {
		return 0
	}
	var correct int
	for _, e := range d.Examples {
		if !e.HasLabel() {
			continue
		}
		if math.Round(m.Predict(e.X)) == e.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Examples))
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

// TestDataDrivenPruningEndToEnd trains a model on data where one feature
// is pure noise with no signal; L2 regularization should drive its weight
// toward zero relative to the informative feature — the premise of the
// paper's data-driven pruning (§5.4).
func TestDataDrivenPruningEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var raw []RawFeatures
	var labels []float64
	for i := 0; i < 600; i++ {
		signal := rng.NormFloat64()
		noise := rng.NormFloat64()
		raw = append(raw, RawFeatures{"signal": Num(signal), "noise": Num(noise)})
		y := 0.0
		if signal > 0 {
			y = 1
		}
		labels = append(labels, y)
	}
	fs := FitFeatureSpace(raw)
	ds := &Dataset{Dim: fs.Dim()}
	for i := range raw {
		ds.Examples = append(ds.Examples, Example{X: fs.Vectorize(raw[i]), Y: labels[i], Train: true})
	}
	m, err := LogisticRegression{RegParam: 0.05, Epochs: 30, Seed: 11}.Fit(ds)
	if err != nil {
		t.Fatal(err)
	}
	var wSignal, wNoise float64
	for i := 0; i < fs.Dim(); i++ {
		switch fs.SlotName(i) {
		case "signal":
			wSignal = m.W[i]
		case "noise":
			wNoise = m.W[i]
		}
	}
	if math.Abs(wSignal) < 5*math.Abs(wNoise) {
		t.Fatalf("signal weight %.3f not dominant over noise %.3f", wSignal, wNoise)
	}
}
