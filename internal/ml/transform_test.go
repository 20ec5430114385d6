package ml

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"helix/internal/data"
)

func TestBucketizerEqualFrequency(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	b, err := FitBucketizer(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBuckets() != 10 {
		t.Fatalf("buckets = %d, want 10", b.NumBuckets())
	}
	counts := make([]int, 10)
	for _, v := range values {
		counts[int(b.Transform(v))]++
	}
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("bucket %d has %d values, want 10 (equal frequency)", i, c)
		}
	}
}

func TestBucketizerDuplicateHeavyValues(t *testing.T) {
	// 90% identical values must not produce duplicate boundaries.
	values := make([]float64, 100)
	for i := 90; i < 100; i++ {
		values[i] = float64(i)
	}
	b, err := FitBucketizer(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b.Boundaries); i++ {
		if b.Boundaries[i] <= b.Boundaries[i-1] {
			t.Fatal("boundaries not strictly increasing")
		}
	}
}

func TestBucketizerErrors(t *testing.T) {
	if _, err := FitBucketizer(nil, 10); err == nil {
		t.Fatal("expected error on empty values")
	}
	if _, err := FitBucketizer([]float64{1}, 1); err == nil {
		t.Fatal("expected error on <2 bins")
	}
}

// Property: bucket indices are monotone in the input value.
func TestPropertyBucketizerMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, 50+rng.Intn(100))
		for i := range values {
			values[i] = rng.NormFloat64() * 100
		}
		b, err := FitBucketizer(values, 2+rng.Intn(8))
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		last := -1.0
		for _, v := range sorted {
			bk := b.Transform(v)
			if bk < last {
				return false
			}
			last = bk
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardScaler(t *testing.T) {
	values := []float64{2, 4, 6, 8}
	s, err := FitStandardScaler(values)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Transformed values should have mean 0 and unit variance.
	var sum, ss float64
	for _, v := range values {
		tv := s.Transform(v)
		sum += tv
		ss += tv * tv
	}
	if !almostEqual(sum/4, 0, 1e-12) || !almostEqual(ss/4, 1, 1e-12) {
		t.Fatalf("standardized moments wrong: mean=%v var=%v", sum/4, ss/4)
	}
}

func TestStandardScalerConstantInput(t *testing.T) {
	s, err := FitStandardScaler([]float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Transform(3); v != 0 {
		t.Fatalf("constant input transform = %v, want 0", v)
	}
	if _, err := FitStandardScaler(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestIndexerStableSortedIndices(t *testing.T) {
	ix := FitIndexer([]string{"red", "blue", "green", "blue"})
	if ix.Size() != 3 {
		t.Fatalf("size = %d", ix.Size())
	}
	// Sorted order: blue=0, green=1, red=2.
	for i, want := range []string{"blue", "green", "red"} {
		if ix.Name(i) != want {
			t.Fatalf("Name(%d) = %q, want %q", i, ix.Name(i), want)
		}
	}
	if i, ok := ix.Index("green"); !ok || i != 1 {
		t.Fatalf("Index(green) = %d,%v", i, ok)
	}
	if _, ok := ix.Index("magenta"); ok {
		t.Fatal("unseen value should not index")
	}
}

func TestIndexerOneHot(t *testing.T) {
	ix := FitIndexer([]string{"a", "b"})
	v := ix.OneHot("b")
	if v.Dim() != 2 || v.At(1) != 1 || v.At(0) != 0 {
		t.Fatal("one-hot wrong")
	}
	unseen := ix.OneHot("zzz")
	if unseen.NNZ() != 0 {
		t.Fatal("unseen one-hot should be all zeros")
	}
}

func TestFeatureSpaceAssemblesMixedFeatures(t *testing.T) {
	all := []RawFeatures{
		{"age": Num(39), "edu": Cat("Bachelors"), "occ": Cat("Tech")},
		{"age": Num(50), "edu": Cat("Masters"), "occ": Cat("Tech")},
	}
	fs := FitFeatureSpace(all)
	// Slots: age(numeric), edu=Bachelors, edu=Masters, occ=Tech → 4 dims.
	if fs.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", fs.Dim())
	}
	v := fs.Vectorize(all[0])
	var nonzero int
	v.ForEach(func(i int, x float64) {
		if x != 0 {
			nonzero++
		}
	})
	if nonzero != 3 {
		t.Fatalf("nonzero = %d, want 3 (age + 2 one-hots)", nonzero)
	}
}

func TestFeatureSpaceUnseenCategoryIgnored(t *testing.T) {
	fs := FitFeatureSpace([]RawFeatures{{"c": Cat("x")}})
	v := fs.Vectorize(RawFeatures{"c": Cat("never-seen")})
	if v.NNZ() != 0 {
		t.Fatal("unseen category should vectorize to zero")
	}
}

func TestFeatureSpaceSlotNamesProvenance(t *testing.T) {
	fs := FitFeatureSpace([]RawFeatures{{"age": Num(1), "edu": Cat("HS")}})
	found := map[string]bool{}
	for i := 0; i < fs.Dim(); i++ {
		found[fs.SlotName(i)] = true
	}
	if !found["age"] || !found["edu=HS"] {
		t.Fatalf("slot names = %v", found)
	}
}

// Property: vectorization is consistent — same raw features always produce
// the same vector, and every nonzero slot traces back to an input feature.
func TestPropertyFeatureSpaceConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cats := []string{"a", "b", "c", "d"}
		var all []RawFeatures
		for i := 0; i < 20; i++ {
			rf := RawFeatures{
				"n1": Num(rng.NormFloat64()),
				"c1": Cat(cats[rng.Intn(len(cats))]),
			}
			all = append(all, rf)
		}
		fs := FitFeatureSpace(all)
		for _, rf := range all {
			v1, v2 := fs.Vectorize(rf), fs.Vectorize(rf)
			if v1.Dim() != v2.Dim() {
				return false
			}
			for i := 0; i < v1.Dim(); i++ {
				if v1.At(i) != v2.At(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type constModel float64

func (c constModel) Predict(Vector) float64 { return float64(c) }

func TestMetricsAccuracy(t *testing.T) {
	d := &Dataset{Dim: 1, Examples: []Example{
		{X: Dense(0), Y: 1}, {X: Dense(0), Y: 1}, {X: Dense(0), Y: 0},
	}}
	if acc := BinaryAccuracy(constModel(0.9), d); !almostEqual(acc, 2.0/3, 1e-12) {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestMetricsPRF1(t *testing.T) {
	d := &Dataset{Dim: 1, Examples: []Example{
		{X: Dense(0), Y: 1}, {X: Dense(0), Y: 0}, {X: Dense(0), Y: 1},
	}}
	r := BinaryPRF1(constModel(1), d) // predicts positive for all
	if r.TP != 2 || r.FP != 1 || r.FN != 0 {
		t.Fatalf("counts = %+v", r)
	}
	if !almostEqual(r.Precision, 2.0/3, 1e-12) || r.Recall != 1 {
		t.Fatalf("P/R = %v/%v", r.Precision, r.Recall)
	}
	if r.F1 <= 0 || r.F1 > 1 {
		t.Fatalf("F1 = %v", r.F1)
	}
}

func TestMetricsLogLossBounds(t *testing.T) {
	d := &Dataset{Dim: 1, Examples: []Example{{X: Dense(0), Y: 1}}}
	perfect := LogLoss(constModel(1), d)
	bad := LogLoss(constModel(0.1), d)
	if perfect >= bad {
		t.Fatal("perfect prediction should have lower log loss")
	}
	if math.IsInf(bad, 0) || math.IsNaN(bad) {
		t.Fatal("log loss must be clipped finite")
	}
}

func TestConfusionMatrix(t *testing.T) {
	d := &Dataset{Dim: 1, Examples: []Example{
		{X: Dense(0), Y: 0}, {X: Dense(0), Y: 1}, {X: Dense(0), Y: 1},
	}}
	cm := ConfusionMatrix(constModel(1), d, 2)
	if cm[0][1] != 1 || cm[1][1] != 2 || cm[0][0] != 0 {
		t.Fatalf("confusion = %v", cm)
	}
	if s := FormatConfusion(cm); s == "" {
		t.Fatal("empty confusion format")
	}
}

func TestSummarizeClusters(t *testing.T) {
	m := &KMeansModel{Centroids: []DenseVector{Dense(0, 0), Dense(10, 10)}}
	d := &Dataset{Dim: 2, Examples: []Example{
		{X: Dense(0.1, 0), ID: "near-origin"},
		{X: Dense(9.9, 10), ID: "near-ten"},
		{X: Dense(0, 0.2), ID: "origin2"},
	}}
	s := SummarizeClusters(m, d, 5)
	if s.K != 2 || s.Sizes[0] != 2 || s.Sizes[1] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Inertia <= 0 {
		t.Fatal("inertia should be positive for off-centroid points")
	}
	if len(s.TopMembers[0]) != 2 || s.TopMembers[0][0] != "near-origin" {
		t.Fatalf("members = %v", s.TopMembers)
	}
}

// referenceFeatureSpace is FitFeatureSpace and Vectorize as they were
// written first — a "name=value" key per cell and a map per row — kept as
// the oracle the allocation-free version must match bit for bit.
type referenceFeatureSpace struct {
	slots map[string]int
	names []string
}

func fitReference(all []RawFeatures) *referenceFeatureSpace {
	seen := make(map[string]bool)
	for _, rf := range all {
		for name, v := range rf {
			seen[slotKey(name, v)] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	slots := make(map[string]int, len(names))
	for i, k := range names {
		slots[k] = i
	}
	return &referenceFeatureSpace{slots: slots, names: names}
}

func (fs *referenceFeatureSpace) vectorize(rf RawFeatures) *SparseVector {
	elems := make(map[int]float64, len(rf))
	for name, v := range rf {
		slot, ok := fs.slots[slotKey(name, v)]
		if !ok {
			continue
		}
		if v.IsNumber {
			elems[slot] = v.Num
		} else {
			elems[slot] = 1
		}
	}
	return Sparse(len(fs.names), elems)
}

// censusRawFeatures parses generated census rows the way the census
// synthesizer sees them: numeric columns as numbers, the rest as
// categories. Rows whose race is not White also carry a numeric feature
// named "race=White", whose key collides with the categorical one's.
func censusRawFeatures(t *testing.T) []RawFeatures {
	t.Helper()
	train, test := data.GenerateCensusCSV(data.CensusConfig{TrainRows: 400, TestRows: 100, Seed: 7})
	numeric := map[string]bool{"age": true, "fnlwgt": true, "education_num": true, "capital_gain": true, "capital_loss": true, "hours_per_week": true}
	var raw []RawFeatures
	for _, csv := range []string{train, test} {
		lines := strings.Split(strings.TrimSpace(csv), "\n")
		for i, line := range lines[1:] {
			cells := strings.Split(line, ",")
			rf := make(RawFeatures, len(cells)+1)
			for c, name := range data.CensusColumns {
				if name == "target" {
					continue
				}
				if numeric[name] {
					x, err := strconv.ParseFloat(cells[c], 64)
					if err != nil {
						t.Fatal(err)
					}
					rf[name] = Num(x)
				} else {
					rf[name] = Cat(cells[c])
				}
			}
			if rf["race"].Str != "White" {
				rf["race=White"] = Num(float64(i % 5))
			}
			raw = append(raw, rf)
		}
	}
	return raw
}

// TestFeatureSpaceMatchesReference: on census rows, slot numbering and
// every vector equal the per-cell-key implementation's, including a
// numeric feature whose name is another feature's "name=value" key, and
// values fit never saw.
func TestFeatureSpaceMatchesReference(t *testing.T) {
	raw := censusRawFeatures(t)
	fs, ref := FitFeatureSpace(raw), fitReference(raw)
	if !reflect.DeepEqual(fs.names, ref.names) {
		t.Fatalf("slot names differ:\n got %v\nwant %v", fs.names, ref.names)
	}
	shared := 0
	probes := append(raw, RawFeatures{"race": Cat("Martian"), "age": Cat("old"), "race=White": Num(3), "nobody": Num(1)},
		RawFeatures{"race=Black": Num(2), "workclass=Private": Num(4)})
	for i, rf := range probes {
		got, want := fs.Vectorize(rf).(*SparseVector), ref.vectorize(rf)
		if got.N != want.N || !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("row %d: %+v, want %+v", i, got, want)
		}
		if _, ok := rf["race=White"]; ok && i < len(raw) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no row exercised the colliding key")
	}
	if n := testing.AllocsPerRun(20, func() { fs.Vectorize(raw[0]) }); n > 3 {
		t.Errorf("Vectorize allocates %v times per row, want at most 3 (indices, values, vector)", n)
	}
}

// TestFeatureSpaceCollisionInOneRow: a row carrying both halves of a
// colliding key gets one entry, the larger value, whatever the map order.
func TestFeatureSpaceCollisionInOneRow(t *testing.T) {
	rf := RawFeatures{"a": Cat("b"), "a=b": Num(0.25), "z": Num(2)}
	fs := FitFeatureSpace([]RawFeatures{rf})
	if fs.Dim() != 2 {
		t.Fatalf("dim %d, want 2 (a=b shared, z)", fs.Dim())
	}
	for i := 0; i < 20; i++ {
		v := fs.Vectorize(rf).(*SparseVector)
		if !slices.Equal(v.Idx, []int{0, 1}) || !slices.Equal(v.Val, []float64{1, 2}) {
			t.Fatalf("vector %+v, want idx [0 1] val [1 2]", v)
		}
	}
}

// censusColumns is censusRawFeatures' rows column-major, with the
// colliding numeric "race=White" present in every row — in the rows whose
// race is White too, so both halves of that key meet in one row — and the
// same rows as maps, the oracle's input.
func censusColumns(t *testing.T) (names []string, cols [][]FeatureValue, rows []RawFeatures) {
	t.Helper()
	raw := censusRawFeatures(t)
	for name := range raw[0] {
		if name != "race=White" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	names = append(names, "race=White")
	cols = make([][]FeatureValue, len(names))
	rows = make([]RawFeatures, len(raw))
	for i, rf := range raw {
		rows[i] = make(RawFeatures, len(names))
		for j, name := range names {
			v, ok := rf[name]
			if !ok {
				v = Num(float64(i%3) / 2) // includes 0 and values below the categorical 1
			}
			cols[j] = append(cols[j], v)
			rows[i][name] = v
		}
	}
	return names, cols, rows
}

// TestFeatureSpaceColumnsMatchesMaps: the column-major entry points give
// the slots, dimension and per-row coordinates FitFeatureSpace and
// Vectorize give the same rows as maps, on 500 census rows with a numeric
// column whose name is a categorical slot's key.
func TestFeatureSpaceColumnsMatchesMaps(t *testing.T) {
	names, cols, rows := censusColumns(t)
	if len(rows) != 500 {
		t.Fatalf("%d rows, want 500", len(rows))
	}
	got, want := FitFeatureSpaceColumns(names, cols), FitFeatureSpace(rows)
	if got.Dim() != want.Dim() || !reflect.DeepEqual(got.names, want.names) {
		t.Fatalf("slots differ:\n got %d %v\nwant %d %v", got.Dim(), got.names, want.Dim(), want.names)
	}
	vecs := got.VectorizeColumns(names, cols)
	if len(vecs) != len(rows) {
		t.Fatalf("%d vectors for %d rows", len(vecs), len(rows))
	}
	collided := 0
	for i, rf := range rows {
		w := want.Vectorize(rf).(*SparseVector)
		g := vecs[i]
		if g.N != w.N || !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Val, w.Val) {
			t.Fatalf("row %d: %+v, want %+v", i, g, *w)
		}
		if rf["race"].Str == "White" {
			collided++
		}
	}
	if collided == 0 {
		t.Fatal("no row held both halves of the colliding key")
	}
	// Windows of shared slabs: appending to one vector leaves the next alone.
	next := slices.Clone(vecs[1].Idx)
	vecs[0].Idx = append(vecs[0].Idx, -1)
	if !slices.Equal(vecs[1].Idx, next) {
		t.Fatal("appending to vector 0 changed vector 1")
	}
	if n := testing.AllocsPerRun(5, func() { got.VectorizeColumns(names, cols) }); n > 4 {
		t.Errorf("VectorizeColumns allocates %v times, want at most 4 (lookups, two slabs, vectors)", n)
	}
}
