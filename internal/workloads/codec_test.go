package workloads

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/iotest"

	"helix"
	"helix/internal/core"
	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/nlp"
	"helix/internal/store"
)

// TestCodecExtRoundTrip drives each registered workload extension through
// the binary codec's full Encode/Decode path and demands exact value
// equality, plus a size win over the gob escape hatch the extension
// replaces — the point of registering at all.
func TestCodecExtRoundTrip(t *testing.T) {
	RegisterAll()

	rows := censusTable([]string{"age", "workclass", "income"}, 400, func(i, j int) string {
		switch j {
		case 0:
			return fmt.Sprint(20 + i%60)
		case 1:
			return []string{"private", "state", "self", ""}[i%4]
		}
		return []string{"<=50K", ">50K"}[i%2]
	})

	col := Column{Name: "age", Values: make([]ml.FeatureValue, 400)}
	for i := range col.Values {
		if i%5 == 0 {
			col.Values[i] = ml.Cat([]string{"low", "mid", "high"}[i%3])
		} else {
			col.Values[i] = ml.Num(float64(i) / 7)
		}
	}

	preds := Predictions{
		Scores: make([]float64, 400),
		Labels: make([]float64, 400),
		Train:  make([]bool, 400),
	}
	for i := range preds.Scores {
		// Full-precision sigmoid outputs, like a real fitted model emits.
		preds.Scores[i] = 1 / (1 + math.Exp(-float64(i-200)/37))
		preds.Labels[i] = float64(i % 2)
		preds.Train[i] = i%4 != 0
	}

	for _, tc := range []struct {
		name  string
		value any
	}{
		{"census-table", rows},
		{"column", col},
		{"predictions", preds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin, err := store.BinaryCodec{}.Encode(tc.value)
			if err != nil {
				t.Fatalf("binary encode: %v", err)
			}
			back, err := store.BinaryCodec{}.Decode(bin)
			if err != nil {
				t.Fatalf("binary decode: %v", err)
			}
			if !reflect.DeepEqual(back, tc.value) {
				t.Fatalf("round trip changed value:\n got %#v\nwant %#v", back, tc.value)
			}
			gob, err := store.GobCodec{}.Encode(tc.value)
			if err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			if len(bin) >= len(gob) {
				t.Fatalf("columnar encoding not smaller: binary %dB vs gob %dB", len(bin), len(gob))
			}
			t.Logf("binary %dB vs gob %dB (%.1f×)", len(bin), len(gob), float64(len(gob))/float64(len(bin)))
		})
	}
}

// extCase is one generated value of one registered extension.
type extCase struct {
	ext   string // store.Ext name the value must be encoded under
	name  string
	value any
}

// sameValue is reflect.DeepEqual except that floats compare by their bits:
// NaN labels equal themselves and -0 differs from 0, which is what "the
// value came back unchanged" means for a codec.
func sameValue(a, b any) bool {
	return sameReflect(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameReflect(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameReflect(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameReflect(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameReflect(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameReflect(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// censusTable builds a table of n rows under header, cell(i, j) being row
// i's cell in column j; every fourth row is a test row.
func censusTable(header []string, n int, cell func(i, j int) string) CensusTable {
	t := CensusTable{Table: data.Table{Header: header, Cols: make([][]string, len(header))}}
	if n == 0 {
		return t
	}
	t.Train = make([]bool, n)
	for i := range t.Train {
		t.Train[i] = i%4 != 0
	}
	for j := range t.Cols {
		t.Cols[j] = make([]string, n)
		for i := range t.Cols[j] {
			t.Cols[j][i] = cell(i, j)
		}
	}
	return t
}

func generatedCases() []extCase {
	rng := rand.New(rand.NewSource(24))
	var cases []extCase
	add := func(ext, name string, v any) { cases = append(cases, extCase{ext, name, v}) }

	// CensusTable
	add("workloads.CensusTable", "zero-rows", CensusTable{})
	add("workloads.CensusTable", "header-only", censusTable([]string{"age", "note"}, 0, nil))
	add("workloads.CensusTable", "no-columns", CensusTable{Train: []bool{true, false, true}})
	add("workloads.CensusTable", "uniform", censusTable([]string{"age", "workclass", "note"}, 60, func(i, j int) string {
		return []string{fmt.Sprint(20 + i%7), []string{"private", "state", "self"}[i%3], ""}[j]
	}))
	wide := make([]string, 300) // more columns than a byte counts
	for k := range wide {
		wide[k] = fmt.Sprintf("k%03d", k)
	}
	add("workloads.CensusTable", "wide", censusTable(wide, 3, func(i, j int) string { return fmt.Sprint((i + j) % 4) }))
	// More distinct cells than a dictionary holds: past dictMax the cells
	// are literals that take no id, and the early ids still resolve.
	distinct := censusTable([]string{"id", "parity"}, 5000, func(i, j int) string {
		if j == 1 {
			return fmt.Sprint(i % 2)
		}
		return fmt.Sprint("id-", i)
	})
	distinct.Cols[0][4998], distinct.Cols[0][4999] = "id-7", "id-4500"
	add("workloads.CensusTable", "high-cardinality", distinct)

	// Column
	mixed := Column{Name: "mixed", Values: make([]ml.FeatureValue, 90)}
	for i := range mixed.Values {
		switch {
		case i%5 == 0:
			mixed.Values[i] = ml.Cat([]string{"low", "mid", "", "high"}[i%4])
		case i%3 == 0:
			mixed.Values[i] = ml.Num(0)
		default:
			mixed.Values[i] = ml.Num(float64(i) / 7)
		}
	}
	numeric := Column{Name: "numeric", Values: []ml.FeatureValue{ml.Num(math.NaN()), ml.Num(3), ml.Num(math.Inf(1)), ml.Num(1e300)}}
	whole := Column{Name: "whole", Values: make([]ml.FeatureValue, 40)}
	for i := range whole.Values {
		whole.Values[i] = ml.Num(float64(i%3 - 1))
	}
	add("workloads.Column/2", "mixed", mixed)
	add("workloads.Column/2", "numeric-specials", numeric)
	add("workloads.Column/2", "whole-numbers", whole)
	add("workloads.Column/2", "categorical", Column{Name: "c", Values: []ml.FeatureValue{ml.Cat("a"), ml.Cat("b"), ml.Cat("a")}})
	add("workloads.Column/2", "empty", Column{Name: "none"})

	// Predictions
	preds := Predictions{Scores: make([]float64, 70), Labels: make([]float64, 70), Train: make([]bool, 70)}
	for i := range preds.Scores {
		preds.Scores[i] = 1 / (1 + math.Exp(-float64(i-35)/7))
		preds.Labels[i] = float64(i % 2)
		preds.Train[i] = i%4 != 0
	}
	add("workloads.Predictions/2", "sigmoid", preds)
	// Wider than a load's first window: the scores are a raw column that a
	// file-backed decode reads straight into its slice.
	widePreds := Predictions{Scores: make([]float64, 3000), Labels: make([]float64, 3000), Train: make([]bool, 3000)}
	for i := range widePreds.Scores {
		widePreds.Scores[i] = 1 / (1 + math.Exp(-float64(i-1500)/300))
		widePreds.Labels[i] = float64(i % 2)
		widePreds.Train[i] = i%4 != 0
	}
	add("workloads.Predictions/2", "wide", widePreds)
	add("workloads.Predictions/2", "empty", Predictions{})

	add("workloads.CensusData", "csv", CensusData{Train: "a,b\n1,2\n", Test: "a,b\n"})
	add("workloads.CensusData", "empty", CensusData{})

	add("workloads.EvalReport", "nil-metrics", EvalReport{})
	add("workloads.EvalReport", "no-metrics", EvalReport{Metrics: map[string]float64{}})
	add("workloads.EvalReport", "metrics", EvalReport{Metrics: map[string]float64{"accuracy": 0.8125, "f1": math.NaN(), "": 0}})

	cands := make([]Candidate, 30)
	for i := range cands {
		cands[i] = Candidate{A: fmt.Sprint("p", i%4), B: fmt.Sprint("p", i%5), Label: []float64{-1, 0, 1}[i%3]}
		for j := 0; j < i%4; j++ {
			cands[i].Between = append(cands[i].Between, []string{"and", "his", "wife"}[j%3])
			cands[i].POSSeq = append(cands[i].POSSeq, []string{"CC", "PRP"}[j%2])
		}
	}
	add("workloads.Candidates", "pairs", cands)
	add("workloads.Candidates", "none", []Candidate(nil))

	articles := []data.Article{{ID: "a1", Text: "BRCA1 is a gene."}, {ID: "", Text: ""}, {ID: "a3", Text: "x"}}
	add("workloads.GenomicsCorpus", "kb", GenomicsCorpus{Articles: articles, KB: &data.GeneKB{Genes: map[string]int{"BRCA1": 2, "TP53": 0}, Groups: 3}})
	add("workloads.GenomicsCorpus", "no-kb", GenomicsCorpus{Articles: articles})
	add("workloads.GenomicsCorpus", "nil-genes", GenomicsCorpus{KB: &data.GeneKB{Groups: 1}})
	add("workloads.IECorpus", "kb", IECorpus{Articles: articles, KB: &data.SpouseKB{Pairs: map[string]bool{"a|b": true, "c|d": false}}})
	add("workloads.IECorpus", "no-kb", IECorpus{})

	// *ml.Dataset
	ds := &ml.Dataset{Dim: 9}
	for i := 0; i < 120; i++ {
		e := ml.Example{Y: float64(i % 3), Train: i%5 != 0}
		switch i % 4 {
		case 0:
			dense := make(ml.DenseVector, 9)
			for j := range dense {
				if rng.Intn(2) == 0 {
					dense[j] = rng.Float64()
				}
			}
			e.X = dense
		case 1:
			e.X = ml.Sparse(9, map[int]float64{i % 9: 1, (i + 3) % 9: rng.NormFloat64()})
		case 2:
			e.X = &ml.SparseVector{N: 9} // no stored coordinates
		}
		if i%7 == 0 {
			e.Y = math.NaN() // unlabeled
		}
		if i%2 == 0 {
			e.ID = fmt.Sprint("gene", i%10)
		}
		ds.Examples = append(ds.Examples, e)
	}
	add("ml.Dataset", "mixed-vectors", ds)
	add("ml.Dataset", "empty", &ml.Dataset{Dim: 4})
	sparseOnly := &ml.Dataset{Dim: 50}
	for i := 0; i < 40; i++ {
		sparseOnly.Examples = append(sparseOnly.Examples, ml.Example{
			X: ml.Sparse(50, map[int]float64{i: 1, 49: 0.5}), Y: float64(i % 2), Train: true,
		})
	}
	add("ml.Dataset", "sparse-no-ids", sparseOnly)
	// A raw column of 100 KiB mid-message, after IDs that outrun a load's
	// first window while the split bitmap read before them is still in
	// use.
	dense := &ml.Dataset{Dim: 64}
	drng := rand.New(rand.NewSource(64))
	for i := 0; i < 200; i++ {
		x := make(ml.DenseVector, 64)
		for j := range x {
			x[j] = drng.NormFloat64()
		}
		id := fmt.Sprint("example-", i, "-of-the-wide-dense-set")
		dense.Examples = append(dense.Examples, ml.Example{X: x, Y: float64(i % 3), Train: i%5 != 0, ID: id})
	}
	add("ml.Dataset", "dense-wide", dense)

	// []data.Image
	images := make([]data.Image, 12)
	for i := range images {
		images[i] = data.Image{Label: i % 10, Train: i%3 != 0}
		if i%5 != 4 { // every fifth image has no pixels at all
			images[i].Pixels = make([]float64, 16)
			for j := range images[i].Pixels {
				images[i].Pixels[j] = math.Max(0, math.Min(1, rng.NormFloat64()))
			}
		}
	}
	add("data.Images", "clamped", images)
	add("data.Images", "none", []data.Image(nil))

	add("ml.Embeddings", "vectors", &ml.Embeddings{Dim: 3, Vectors: map[string]ml.DenseVector{
		"gene": {0.1, -0.2, 0.3}, "disease": {0, 0, 1}, "": nil,
	}})
	add("ml.Embeddings", "nil-map", &ml.Embeddings{Dim: 8})
	add("ml.KMeansModel", "centroids", &ml.KMeansModel{Centroids: []ml.DenseVector{{1, 2}, nil, {0, 0.5}}})
	add("ml.KMeansModel", "empty", &ml.KMeansModel{})
	add("ml.ClusterSummary", "summary", ml.ClusterSummary{K: 3, Sizes: []int{4, 0, 7}, Inertia: 12.5, TopMembers: [][]string{{"g1", "g2"}, nil, {"g1"}}})
	add("ml.ClusterSummary", "zero", ml.ClusterSummary{})

	docs := []nlp.Document{
		{ID: "d1", Sentences: []nlp.Sentence{{{Text: "Ann", POS: "NNP"}, {Text: "married", POS: "VBD"}, {Text: "Bob", POS: "NNP"}}, nil}},
		{ID: "d2"},
		{ID: "", Sentences: []nlp.Sentence{{{Text: "Bob", POS: "NNP"}}}},
	}
	add("nlp.Documents", "parsed", docs)
	add("nlp.Documents", "none", []nlp.Document(nil))
	return cases
}

// TestExtRoundTripProperty: for every registered extension and every
// generated value, decode(encode(v)) is v, is also what gob makes of v
// (the encoding the extension replaced), is encoded under the extension's
// name rather than the escape hatch, and encodes to the same bytes twice
// (declared outputs are compared byte for byte).
func TestExtRoundTripProperty(t *testing.T) {
	RegisterAll()
	covered := map[string]bool{}
	for _, tc := range generatedCases() {
		covered[tc.ext] = true
		t.Run(tc.ext+"/"+tc.name, func(t *testing.T) {
			bin, err := store.BinaryCodec{}.Encode(tc.value)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Contains(bin[:min(len(bin), 64)], []byte(tc.ext)) {
				t.Fatalf("not encoded under extension %q: % x", tc.ext, bin[:min(len(bin), 48)])
			}
			back, err := store.BinaryCodec{}.Decode(bin)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !sameValue(back, tc.value) {
				t.Fatalf("round trip changed the value:\n got %#v\nwant %#v", back, tc.value)
			}
			again, err := store.BinaryCodec{}.Encode(tc.value)
			if err != nil || !bytes.Equal(bin, again) {
				t.Fatalf("second encoding differs (err %v): %d vs %d bytes", err, len(bin), len(again))
			}
			reenc, err := store.BinaryCodec{}.Encode(back)
			if err != nil || !bytes.Equal(bin, reenc) {
				t.Fatalf("encoding the decoded value differs (err %v)", err)
			}
			gobBytes, err := store.GobCodec{}.Encode(tc.value)
			if err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			viaGob, err := store.GobCodec{}.Decode(gobBytes)
			if err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if !sameValue(back, viaGob) {
				t.Fatalf("native and gob round trips disagree:\n native %#v\n    gob %#v", back, viaGob)
			}
		})
	}
	for _, name := range store.Extensions() {
		if !covered[name] {
			t.Errorf("registered extension %q has no generated value: add cases for it", name)
		}
	}
}

// TestExtTruncationAlwaysErrors: every proper prefix of every valid
// payload is an error — never a panic, never a shorter value.
func TestExtTruncationAlwaysErrors(t *testing.T) {
	RegisterAll()
	for _, tc := range generatedCases() {
		bin, err := store.BinaryCodec{}.Encode(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		if len(bin) > 8<<10 {
			continue // the large cases repeat the small ones' structure
		}
		for n := 5; n < len(bin); n++ {
			if v, err := (store.BinaryCodec{}).Decode(bin[:n]); err == nil {
				t.Fatalf("%s/%s: %d of %d bytes decoded to %#v", tc.ext, tc.name, n, len(bin), v)
			}
		}
	}
}

// TestExtDecodeFromAgrees: every generated value's payload decodes through
// the file-backed Reader — fed a byte at a time, in short reads, and from
// a real file — to what Decode makes of the same bytes, and the payload
// one byte short or one byte long fails on every source.
func TestExtDecodeFromAgrees(t *testing.T) {
	RegisterAll()
	dir := t.TempDir()
	for i, tc := range generatedCases() {
		bin, err := store.BinaryCodec{}.Encode(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		want, err := store.BinaryCodec{}.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range []struct {
			name string
			data []byte
		}{{"whole", bin}, {"short", bin[:len(bin)-1]}, {"long", append(bin[:len(bin):len(bin)], 0)}} {
			path := filepath.Join(dir, fmt.Sprint(i, payload.name))
			if err := os.WriteFile(path, payload.data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for source, src := range map[string]io.Reader{
				"one-byte": iotest.OneByteReader(bytes.NewReader(payload.data)),
				"short":    iotest.HalfReader(bytes.NewReader(payload.data)),
				"file":     f,
			} {
				got, err := store.BinaryCodec{}.DecodeFrom(src, int64(len(payload.data)))
				switch {
				case payload.name != "whole" && err == nil:
					t.Errorf("%s/%s: %s payload from %s decoded to %#v", tc.ext, tc.name, payload.name, source, got)
				case payload.name == "whole" && (err != nil || !sameValue(got, want)):
					t.Errorf("%s/%s: from %s: DecodeFrom = %#v, %v; Decode = %#v", tc.ext, tc.name, source, got, err, want)
				}
			}
			f.Close()
		}
	}
}

// TestDecodedSlabsDoNotAlias is the slab contract: the pieces of a decoded
// value share a few large allocations, yet writing through one piece, or
// appending to it, never changes another.
func TestDecodedSlabsDoNotAlias(t *testing.T) {
	RegisterAll()
	decode := func(v any) any {
		t.Helper()
		bin, err := store.BinaryCodec{}.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := store.BinaryCodec{}.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	cases := map[string]any{}
	for _, tc := range generatedCases() {
		cases[tc.ext+"/"+tc.name] = tc.value
	}

	t.Run("dataset", func(t *testing.T) {
		want := cases["ml.Dataset/mixed-vectors"].(*ml.Dataset)
		for victim := range want.Examples {
			got := decode(want).(*ml.Dataset)
			switch x := got.Examples[victim].X.(type) {
			case ml.DenseVector:
				for j := range x {
					x[j] = -9
				}
				got.Examples[victim].X = append(x, 7, 7, 7)
			case *ml.SparseVector:
				for j := range x.Idx {
					x.Idx[j], x.Val[j] = -9, -9
				}
				x.Idx, x.Val = append(x.Idx, 7, 7), append(x.Val, 7, 7)
			default:
				continue
			}
			for i := range want.Examples {
				if i != victim && !sameValue(got.Examples[i], want.Examples[i]) {
					t.Fatalf("scribbling on example %d changed example %d: %#v", victim, i, got.Examples[i])
				}
			}
		}
	})
	t.Run("images", func(t *testing.T) {
		want := cases["data.Images/clamped"].([]data.Image)
		for victim := range want {
			got := decode(want).([]data.Image)
			for j := range got[victim].Pixels {
				got[victim].Pixels[j] = -9
			}
			got[victim].Pixels = append(got[victim].Pixels, 7, 7, 7)
			for i := range want {
				if i != victim && !sameValue(got[i], want[i]) {
					t.Fatalf("scribbling on image %d changed image %d", victim, i)
				}
			}
		}
	})
	t.Run("census-table", func(t *testing.T) {
		want := cases["workloads.CensusTable/uniform"].(CensusTable)
		for victim := range want.Cols {
			got := decode(want).(CensusTable)
			got.Cols[victim] = append(got.Cols[victim], "x", "y")
			for j := range want.Cols {
				if j != victim && !sameValue(got.Cols[j], want.Cols[j]) {
					t.Fatalf("appending to column %d changed column %d: %q", victim, j, got.Cols[j])
				}
			}
		}
	})
	t.Run("centroids", func(t *testing.T) {
		want := cases["ml.KMeansModel/centroids"].(*ml.KMeansModel)
		got := decode(want).(*ml.KMeansModel)
		got.Centroids[0][1] = -9
		got.Centroids[0] = append(got.Centroids[0], 7, 7)
		if !sameValue(got.Centroids[2], want.Centroids[2]) {
			t.Fatalf("scribbling on centroid 0 changed centroid 2: %v", got.Centroids[2])
		}
	})
	t.Run("candidates", func(t *testing.T) {
		want := cases["workloads.Candidates/pairs"].([]Candidate)
		got := decode(want).([]Candidate)
		got[3].Between = append(got[3].Between, "x", "y")
		got[3].POSSeq = append(got[3].POSSeq, "x", "y")
		for i := range want {
			if i != 3 && !sameValue(got[i], want[i]) {
				t.Fatalf("appending to candidate 3 changed candidate %d: %#v", i, got[i])
			}
		}
	})
	t.Run("documents", func(t *testing.T) {
		want := cases["nlp.Documents/parsed"].([]nlp.Document)
		got := decode(want).([]nlp.Document)
		got[0].Sentences[0] = append(got[0].Sentences[0], nlp.Token{Text: "x"})
		got[0].Sentences = append(got[0].Sentences, nlp.Sentence{{Text: "y"}})
		if !sameValue(got[2], want[2]) {
			t.Fatalf("appending to document 0 changed document 2: %#v", got[2])
		}
	})
}

// TestDatasetDecodeAllocations: a dataset of sparse vectors decodes in a
// fixed number of allocations (its slabs) plus one per distinct ID, where
// gob made three or more per example.
func TestDatasetDecodeAllocations(t *testing.T) {
	build := func(n int) []byte {
		d := &ml.Dataset{Dim: 40}
		for i := 0; i < n; i++ {
			d.Examples = append(d.Examples, ml.Example{
				X: ml.Sparse(40, map[int]float64{i % 40: 1, (i + 7) % 40: 0.25}), Y: float64(i % 2), Train: i%3 != 0,
				ID: fmt.Sprint("g", i%5),
			})
		}
		bin, err := store.BinaryCodec{}.Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	allocs := func(bin []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := (store.BinaryCodec{}).Decode(bin); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(100)), allocs(build(10000))
	if large > small+2 || large > 24 {
		t.Fatalf("decode allocations grow with the dataset: %v for 100 examples, %v for 10000", small, large)
	}
}

// TestNativeNoLargerThanGob: at the repo benchmark's scales the native
// layouts must not store more than the escape hatch did — store_mb is a
// gated metric, and a flat 8-byte column for digit pixels (half of them
// exactly 0, which gob writes in one byte) once grew it by 27 %.
func TestNativeNoLargerThanGob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs census at the benchmark's scale")
	}
	RegisterAll()
	census := materializedValues(t, NewCensus(benchScale, 1))
	mnist := materializedValues(t, NewMNIST(Scale{Rows: 1}, 1))
	for _, tc := range []struct {
		name  string
		value any
	}{
		{"census income", census["income"]},
		{"census data", census["data"]},
		{"census rows", census["rows"]},
		{"mnist images", mnist["images"]},
		{"mnist pixels dataset", mnist["pixels"]},
		{"mnist rff dataset", mnist["rffFeatures"]},
	} {
		bin, err := store.BinaryCodec{}.Encode(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		gobBytes, err := store.GobCodec{}.Encode(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-22s native %8d B  gob %8d B  (%.2f)", tc.name, len(bin), len(gobBytes), float64(len(bin))/float64(len(gobBytes)))
		if len(bin) > len(gobBytes) {
			t.Errorf("%s: native %d B > gob %d B", tc.name, len(bin), len(gobBytes))
		}
	}
}

// parentFixtureValues rebuilds the values behind testdata/parent/*.bin.
// The fixtures were written by the encoders this package had before the
// three layouts below changed (commit 34b62f9: the key-major TaggedRows,
// and the packBools form of Column and Predictions). taggedrows.bin holds
// 40 parsed rows as per-row maps — a type that is gone: the scanner's
// output is now the column-major CensusTable, and the rows are rebuilt as
// one (row 7's missing workclass and row 9's missing cells as empty
// strings). The other two are exactly these values.
func parentFixtureValues() map[string]any {
	rows := censusTable([]string{"age", "fnlwgt", "note", "workclass"}, 40, func(i, j int) string {
		switch {
		case i == 9, j == 2, j == 3 && i == 7:
			return ""
		case j == 0:
			return fmt.Sprint(20 + i%7)
		case j == 1:
			return fmt.Sprint(100000 + 37*i)
		}
		return []string{"private", "state", "self"}[i%3]
	})
	col := Column{Name: "age", Values: make([]ml.FeatureValue, 40)}
	for i := range col.Values {
		if i%5 == 0 {
			col.Values[i] = ml.Cat([]string{"low", "mid", "high"}[i%3])
		} else {
			col.Values[i] = ml.Num(float64(i) / 7)
		}
	}
	preds := Predictions{Scores: make([]float64, 40), Labels: make([]float64, 40), Train: make([]bool, 40)}
	for i := range preds.Scores {
		preds.Scores[i] = 1 / (1 + math.Exp(-float64(i-20)/3.7))
		preds.Labels[i] = float64(i % 2)
		preds.Train[i] = i%4 != 0
	}
	return map[string]any{"taggedrows": rows, "column": col, "predictions": preds}
}

// TestParentArtifactsDecodeOrFailCleanly: an artifact written before a
// layout was renamed either still decodes to the same value or fails with
// the unknown-extension error the engine answers by recomputing — never
// with a wrong value. (All three were renamed, so all three must fail; the
// test states the rule, not the current count.)
func TestParentArtifactsDecodeOrFailCleanly(t *testing.T) {
	RegisterAll()
	for name, want := range parentFixtureValues() {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent", name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.BinaryCodec{}.Decode(raw)
		switch {
		case err != nil && strings.Contains(err.Error(), "unknown codec extension"):
		case err != nil:
			t.Errorf("%s: parent artifact fails with %v, want the unknown-extension error", name, err)
		case !sameValue(got, want):
			t.Errorf("%s: parent artifact decoded to a different value: %#v", name, got)
		}
		// The same value under today's layout still round-trips.
		bin, err := store.BinaryCodec{}.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := (store.BinaryCodec{}).Decode(bin); err != nil || !sameValue(back, want) {
			t.Errorf("%s: today's round trip: %v", name, err)
		}
	}
}

// TestParentSessionDirectoryReopens: testdata/parent/session is a session
// directory the parent commit wrote (a 64-row census, every node
// materialized). Its manifest promises artifacts in layouts this build no
// longer reads; reopening it must plan to load them, compute them instead
// when they do not decode, and produce what a session that never saw the
// directory produces.
func TestParentSessionDirectoryReopens(t *testing.T) {
	RegisterAll()
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent", "session")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	census := func() *Census {
		c := NewCensus(Scale{Rows: 1}, 1)
		c.trainRows, c.testRows = 48, 16
		return c
	}
	oracle, err := helix.Open(t.TempDir(), helix.WithPolicy(helix.PolicyNever), helix.WithReuse(false))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	reopened, err := helix.Open(dir, helix.WithPolicy(helix.PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// A PPR edit: the parent's run is iteration 0, so everything upstream
	// of the reducer is planned as a load from the parent's artifacts.
	c := census()
	c.Mutate(3, c.Sequence()[3])
	want, err := oracle.Run(context.Background(), c.Build())
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Run(context.Background(), c.Build())
	if err != nil {
		t.Fatalf("reopened parent session: %v", err)
	}
	// The fall-back was exercised only if a planned load of a node whose
	// parent-written artifact this build cannot read failed (LoadErr).
	unreadable := map[string]bool{}
	st, err := store.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range st.Keys() {
		ent, _ := st.Entry(key)
		if _, _, err := st.Get(key); err != nil && strings.Contains(err.Error(), "unknown codec extension") {
			unreadable[ent.Name] = true
		}
	}
	exercised := false
	for _, np := range got.Plan.Nodes {
		if name := np.Node.Name; got.Nodes[name].LoadErr != nil && unreadable[name] {
			exercised = true
			if got.Nodes[name].State != core.StateCompute {
				t.Errorf("%s fell back from its unreadable artifact but reports %v, want computed", name, got.Nodes[name].State)
			}
		}
	}
	if !exercised {
		t.Fatalf("no planned load of an unreadable parent artifact (%v) failed: %v", unreadable, got.Nodes)
	}
	if !sameValue(got.Values, want.Values) {
		t.Fatalf("outputs differ from the oracle:\n got %#v\nwant %#v", got.Values, want.Values)
	}
}

// FuzzExtDecode feeds hostile bytes to every extension's decoder through
// BinaryCodec.Decode, seeded with a valid payload of each: the result is a
// value or an error — no panic, no allocation beyond a fixed multiple of
// the input (see store's FuzzBinaryDecode for the bound's derivation) —
// and whatever decodes encodes again. The file-backed path, fed a byte at
// a time, keeps the bound and reaches the same outcome.
func FuzzExtDecode(f *testing.F) {
	RegisterAll()
	for _, tc := range generatedCases() {
		bin, err := store.BinaryCodec{}.Encode(tc.value)
		if err != nil {
			f.Fatal(err)
		}
		if len(bin) <= 8<<10 {
			f.Add(bin)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		measure := func(decode func() (any, error)) (any, error, uint64) {
			sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
			metrics.Read(sample)
			before := sample[0].Value.Uint64()
			v, err := decode()
			metrics.Read(sample)
			return v, err, sample[0].Value.Uint64() - before
		}
		bound := 512*uint64(len(raw)) + 64<<10
		const tagGob = 0x01 // excused: gob's decoder allocates by its own rules
		bounded := len(raw) > 5 && string(raw[:4]) == "HXB1" && raw[5] != tagGob
		decodeBounded := func(decode func() (any, error)) (any, error) {
			v, err, grown := measure(decode)
			if bounded && grown > bound {
				// Small allocations are counted when a per-P cache is
				// flushed, and a GC cycle that flushes them mid-decode bills
				// the decode for up to a span per size class allocated
				// before it. Measure again from a collected heap before
				// calling it the decoder's.
				runtime.GC()
				if _, _, grown = measure(decode); grown > bound {
					t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(raw), grown, bound)
				}
			}
			return v, err
		}
		v, err := decodeBounded(func() (any, error) { return store.BinaryCodec{}.Decode(raw) })
		fv, ferr := decodeBounded(func() (any, error) {
			return store.BinaryCodec{}.DecodeFrom(iotest.OneByteReader(bytes.NewReader(raw)), int64(len(raw)))
		})
		if (err == nil) != (ferr == nil) || err == nil && !sameValue(v, fv) {
			t.Fatalf("Decode = %#v, %v; DecodeFrom = %#v, %v", v, err, fv, ferr)
		}
		if err != nil {
			return
		}
		enc, err := store.BinaryCodec{}.Encode(v)
		if err != nil {
			t.Fatalf("decoded value %#v does not encode: %v", v, err)
		}
		back, err := store.BinaryCodec{}.Decode(enc)
		if err != nil || !sameValue(back, v) {
			t.Fatalf("decoded value does not survive its own round trip (err %v):\n got %#v\nwant %#v", err, back, v)
		}
	})
}
