package data

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"helix/internal/nlp"
)

func TestGenerateCensusCSVShape(t *testing.T) {
	train, test := GenerateCensusCSV(CensusConfig{TrainRows: 100, TestRows: 20, Seed: 1})
	rows, err := ParseCSV(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("train rows = %d", len(rows))
	}
	testRows, err := ParseCSV(test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(testRows) != 20 {
		t.Fatalf("test rows = %d", len(testRows))
	}
	for _, c := range CensusColumns {
		if _, ok := rows[0][c]; !ok {
			t.Fatalf("missing column %q", c)
		}
	}
}

func TestGenerateCensusDeterministic(t *testing.T) {
	a, _ := GenerateCensusCSV(CensusConfig{TrainRows: 50, TestRows: 5, Seed: 42})
	b, _ := GenerateCensusCSV(CensusConfig{TrainRows: 50, TestRows: 5, Seed: 42})
	if a != b {
		t.Fatal("same seed produced different census data")
	}
	c, _ := GenerateCensusCSV(CensusConfig{TrainRows: 50, TestRows: 5, Seed: 43})
	if a == c {
		t.Fatal("different seeds produced identical census data")
	}
}

func TestGenerateCensusReplication(t *testing.T) {
	one, _ := GenerateCensusCSV(CensusConfig{TrainRows: 30, TestRows: 1, Seed: 7})
	ten, _ := GenerateCensusCSV(CensusConfig{TrainRows: 30, TestRows: 1, Seed: 7, Replicas: 10})
	r1, _ := ParseCSV(one, nil)
	r10, _ := ParseCSV(ten, nil)
	if len(r10) != 10*len(r1) {
		t.Fatalf("10x rows = %d, want %d", len(r10), 10*len(r1))
	}
	// Replication preserves the learning objective: same distinct rows.
	if r10[0]["age"] != r1[0]["age"] {
		t.Fatal("replication changed row content")
	}
}

func TestCensusLabelHasSignal(t *testing.T) {
	train, _ := GenerateCensusCSV(CensusConfig{TrainRows: 2000, TestRows: 1, Seed: 3})
	rows, _ := ParseCSV(train, nil)
	// P(>50K | Doctorate) should exceed P(>50K | 11th).
	rate := func(edu string) float64 {
		var n, pos int
		for _, r := range rows {
			if r["education"] == edu {
				n++
				if r["target"] == ">50K" {
					pos++
				}
			}
		}
		if n == 0 {
			return 0
		}
		return float64(pos) / float64(n)
	}
	if rate("Doctorate") <= rate("11th") {
		t.Fatalf("education signal missing: Doctorate %.2f ≤ 11th %.2f", rate("Doctorate"), rate("11th"))
	}
	var pos int
	for _, r := range rows {
		if r["target"] == ">50K" {
			pos++
		}
	}
	frac := float64(pos) / float64(len(rows))
	if frac < 0.05 || frac > 0.8 {
		t.Fatalf("positive rate %.2f outside sane range", frac)
	}
}

func TestParseCSVErrors(t *testing.T) {
	if _, err := ParseCSV("", nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := ParseCSV("a,b\n1,2,3\n", nil); err == nil {
		t.Fatal("expected error on field count mismatch")
	}
	if _, err := ParseCSV("a,b\n1,2\n", []string{"only_one"}); err == nil {
		t.Fatal("expected error on column name count mismatch")
	}
}

func TestParseCSVSkipsBlankLines(t *testing.T) {
	rows, err := ParseCSV("a,b\n1,2\n\n3,4\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1]["b"] != "4" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGenerateGenomicsStructure(t *testing.T) {
	articles, kb := GenerateGenomics(GenomicsConfig{
		Articles: 20, SentencesPerArticle: 4, Genes: 30, Functions: 3, Seed: 1,
	})
	if len(articles) != 20 {
		t.Fatalf("articles = %d", len(articles))
	}
	if len(kb.Genes) != 30 || kb.Groups != 3 {
		t.Fatalf("kb = %d genes, %d groups", len(kb.Genes), kb.Groups)
	}
	// Every group is populated.
	seen := make(map[int]bool)
	for _, g := range kb.Genes {
		seen[g] = true
	}
	if len(seen) != 3 {
		t.Fatalf("groups populated = %d", len(seen))
	}
	// Articles actually mention KB genes.
	var mentions int
	for _, a := range articles {
		for _, tok := range nlp.Tokenize(a.Text) {
			if _, ok := kb.Genes[tok]; ok {
				mentions++
			}
		}
	}
	if mentions == 0 {
		t.Fatal("no gene mentions in corpus")
	}
}

func TestGenerateGenomicsGroupContextCorrelation(t *testing.T) {
	articles, kb := GenerateGenomics(GenomicsConfig{
		Articles: 30, SentencesPerArticle: 6, Genes: 12, Functions: 2, Seed: 2,
	})
	// Group-0 articles (even index) should contain far more group-0 gene
	// mentions than group-1 gene mentions.
	var sameGroup, crossGroup int
	for i, a := range articles {
		g := i % 2
		for _, tok := range nlp.Tokenize(a.Text) {
			if gg, ok := kb.Genes[tok]; ok {
				if gg == g {
					sameGroup++
				} else {
					crossGroup++
				}
			}
		}
	}
	if sameGroup <= crossGroup*5 {
		t.Fatalf("weak group structure: same=%d cross=%d", sameGroup, crossGroup)
	}
}

func TestGenerateIEStructure(t *testing.T) {
	articles, kb := GenerateIE(IEConfig{
		Articles: 25, SentencesPerArticle: 5, People: 30, SpousePairs: 10, Seed: 1,
	})
	if len(articles) != 25 {
		t.Fatalf("articles = %d", len(articles))
	}
	if len(kb.Pairs) != 10 {
		t.Fatalf("spouse pairs = %d", len(kb.Pairs))
	}
	// KB pairs must appear in text alongside marriage phrases somewhere.
	var posEvidence int
	for _, a := range articles {
		if strings.Contains(a.Text, "married") || strings.Contains(a.Text, "wed") {
			posEvidence++
		}
	}
	if posEvidence == 0 {
		t.Fatal("no marriage evidence in corpus")
	}
}

// TestGenerateIEDeterministic: the seed alone decides the corpus (the
// spouse pairs used to be drawn in map order, so two calls with one seed
// wrote different articles).
func TestGenerateIEDeterministic(t *testing.T) {
	cfg := IEConfig{Articles: 40, SentencesPerArticle: 6, People: 30, SpousePairs: 10, Seed: 1}
	first, _ := GenerateIE(cfg)
	for i := 0; i < 5; i++ {
		again, _ := GenerateIE(cfg)
		if !reflect.DeepEqual(first, again) {
			t.Fatal("two corpora from one seed differ")
		}
	}
}

func TestPairKeyCanonical(t *testing.T) {
	if PairKey("bob", "alice") != PairKey("alice", "bob") {
		t.Fatal("PairKey not symmetric")
	}
	kb := &SpouseKB{Pairs: map[string]bool{PairKey("a", "b"): true}}
	if !kb.Known("b", "a") {
		t.Fatal("Known not symmetric")
	}
}

func TestIsPersonToken(t *testing.T) {
	if !IsPersonToken("alice_adams") {
		t.Fatal("alice_adams should be a person")
	}
	for _, tok := range []string{"alice", "alice_", "_adams", "zelda_adams", "alice_zzz", "married"} {
		if IsPersonToken(tok) {
			t.Fatalf("%q should not be a person", tok)
		}
	}
}

func TestGenerateDigitsShape(t *testing.T) {
	imgs := GenerateDigits(DigitsConfig{TrainImages: 50, TestImages: 10, Seed: 1})
	if len(imgs) != 60 {
		t.Fatalf("images = %d", len(imgs))
	}
	var train int
	for _, im := range imgs {
		if len(im.Pixels) != 256 {
			t.Fatalf("pixels = %d, want 256", len(im.Pixels))
		}
		if im.Label < 0 || im.Label > 9 {
			t.Fatalf("label = %d", im.Label)
		}
		if im.Train {
			train++
		}
		for _, p := range im.Pixels {
			if p < 0 || p > 1 {
				t.Fatalf("pixel %v out of [0,1]", p)
			}
		}
	}
	if train != 50 {
		t.Fatalf("train images = %d", train)
	}
}

func TestGenerateDigitsClassesDiffer(t *testing.T) {
	imgs := GenerateDigits(DigitsConfig{TrainImages: 20, TestImages: 0, Side: 12, Noise: 0.01, Seed: 5})
	// Mean pixel intensity of an 8 (all segments) must exceed that of a 1
	// (two segments).
	mean := func(label int) float64 {
		var sum float64
		var n int
		for _, im := range imgs {
			if im.Label == label {
				for _, p := range im.Pixels {
					sum += p
				}
				n += len(im.Pixels)
			}
		}
		return sum / float64(n)
	}
	if mean(8) <= mean(1) {
		t.Fatalf("digit 8 intensity %.3f ≤ digit 1 intensity %.3f", mean(8), mean(1))
	}
}

// Property: CSV generation and parsing round-trip the row count for any
// small configuration.
func TestPropertyCensusRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		train, _ := GenerateCensusCSV(CensusConfig{TrainRows: n, TestRows: 1, Seed: seed})
		rows, err := ParseCSV(train, nil)
		return err == nil && len(rows) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRowsApproxBytes(t *testing.T) {
	rows := []Row{{"a": "1", "b": "2"}}
	if RowsApproxBytes(rows) <= 0 {
		t.Fatal("rows size must be positive")
	}
}
