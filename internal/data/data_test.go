package data

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"helix/internal/nlp"
)

// parse is ParseCSV with the plain loop, for one text.
func parse(t *testing.T, text string) Table {
	t.Helper()
	tab, counts, err := ParseCSV(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts[0] != tab.Rows() {
		t.Fatalf("counts %v for %d rows", counts, tab.Rows())
	}
	return tab
}

func col(t *testing.T, tab Table, name string) []string {
	t.Helper()
	c, err := tab.Col(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateCensusCSVShape(t *testing.T) {
	train, test := GenerateCensusCSV(CensusConfig{TrainRows: 100, TestRows: 20, Seed: 1})
	rows := parse(t, train)
	if rows.Rows() != 100 {
		t.Fatalf("train rows = %d", rows.Rows())
	}
	if n := parse(t, test).Rows(); n != 20 {
		t.Fatalf("test rows = %d", n)
	}
	if !reflect.DeepEqual(rows.Header, CensusColumns) {
		t.Fatalf("header %v, want %v", rows.Header, CensusColumns)
	}
	for _, c := range CensusColumns {
		if col(t, rows, c)[0] == "" {
			t.Fatalf("empty cell in column %q", c)
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
	r1, r10 := parse(t, one), parse(t, ten)
	if r10.Rows() != 10*r1.Rows() {
		t.Fatalf("10x rows = %d, want %d", r10.Rows(), 10*r1.Rows())
	}
	// Replication preserves the learning objective: the same rows, repeated.
	for j := range r1.Cols {
		for i, cell := range r10.Cols[j] {
			if cell != r1.Cols[j][i%r1.Rows()] {
				t.Fatalf("replica row %d, column %q: %q, want %q", i, r1.Header[j], cell, r1.Cols[j][i%r1.Rows()])
			}
		}
	}
}

// referenceCensusCSV is the generator as it was first written — a map
// literal and a fmt.Sprintf per row — kept as the oracle the appending
// generator must match byte for byte.
func referenceCensusCSV(cfg CensusConfig) (train, test string) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reps := cfg.Replicas
	if reps < 1 {
		reps = 1
	}
	gen := func(rows int) string {
		var b strings.Builder
		b.WriteString(strings.Join(CensusColumns, ","))
		b.WriteByte('\n')
		lines := make([]string, rows)
		for i := 0; i < rows; i++ {
			lines[i] = referenceCensusRow(rng)
		}
		for r := 0; r < reps; r++ {
			for _, l := range lines {
				b.WriteString(l)
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	return gen(cfg.TrainRows), gen(cfg.TestRows)
}

func referenceCensusRow(rng *rand.Rand) string {
	age := 17 + rng.Intn(63)
	wc := pick(rng, workclasses)
	fnlwgt := 10000 + rng.Intn(700000)
	edu := pick(rng, educations)
	eduNum := map[string]int{"11th": 7, "HS-grad": 9, "Some-college": 10, "Assoc": 12, "Bachelors": 13, "Masters": 14, "Doctorate": 16}[edu]
	marital := pick(rng, maritals)
	occ := pick(rng, occupations)
	rel := pick(rng, relationships)
	race := pick(rng, races)
	sex := pick(rng, sexes)
	gain := 0
	if rng.Float64() < 0.08 {
		gain = rng.Intn(20000)
	}
	loss := 0
	if rng.Float64() < 0.05 {
		loss = rng.Intn(3000)
	}
	hours := 20 + rng.Intn(60)
	score := -4.0 +
		0.35*float64(eduNum) +
		0.02*float64(age) +
		0.03*float64(hours) +
		0.0002*float64(gain)
	if marital == "Married" {
		score += 1.0
	}
	if occ == "Exec-managerial" || occ == "Prof-specialty" {
		score += 0.8
	}
	score += rng.NormFloat64() * 1.2
	target := "<=50K"
	if score > 2.0 {
		target = ">50K"
	}
	return fmt.Sprintf("%d,%s,%d,%s,%d,%s,%s,%s,%s,%s,%d,%d,%d,%s,%s,%s",
		age, wc, fnlwgt, edu, eduNum, marital, occ, rel, race, sex,
		gain, loss, hours, pick(rng, countries),
		noteTemplates[rng.Intn(len(noteTemplates))], target)
}

// TestGenerateCensusMatchesReference: the generated text is byte-identical
// to the fmt.Sprintf generator's, so every digest and figure built on it
// stays put.
func TestGenerateCensusMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, -3} {
		for _, reps := range []int{0, 1, 10} {
			cfg := CensusConfig{TrainRows: 300, TestRows: 75, Seed: seed, Replicas: reps}
			train, test := GenerateCensusCSV(cfg)
			wantTrain, wantTest := referenceCensusCSV(cfg)
			if train != wantTrain || test != wantTest {
				t.Fatalf("seed %d, replicas %d: text differs from the reference generator", seed, reps)
			}
		}
	}
	if a, b := GenerateCensusCSV(CensusConfig{Seed: 5}); a != strings.Join(CensusColumns, ",")+"\n" || a != b {
		t.Fatalf("zero rows: %q, %q", a, b)
	}
}

func TestCensusLabelHasSignal(t *testing.T) {
	train, _ := GenerateCensusCSV(CensusConfig{TrainRows: 2000, TestRows: 1, Seed: 3})
	rows := parse(t, train)
	education, target := col(t, rows, "education"), col(t, rows, "target")
	// P(>50K | Doctorate) should exceed P(>50K | 11th).
	rate := func(edu string) float64 {
		var n, pos int
		for i, e := range education {
			if e == edu {
				n++
				if target[i] == ">50K" {
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
	for _, y := range target {
		if y == ">50K" {
			pos++
		}
	}
	frac := float64(pos) / float64(len(target))
	if frac < 0.05 || frac > 0.8 {
		t.Fatalf("positive rate %.2f outside sane range", frac)
	}
}

func TestParseCSVErrors(t *testing.T) {
	for _, texts := range [][]string{
		nil,                     // no input
		{""},                    // empty input
		{"a,b\n1,2,3\n"},        // too many fields
		{"a,b\n1\n"},            // too few
		{"a,b\n1,2\n", "a,c\n"}, // headers disagree
		{"a,b\n1,2\n", "\n"},    // second input empty
	} {
		if tab, _, err := ParseCSV(nil, texts...); err == nil {
			t.Errorf("%q: parsed to %+v, want an error", texts, tab)
		}
	}
	// The error names the row, whatever order forEach ran the rows in.
	backwards := func(n int, row func(int) bool) bool {
		ok := true
		for i := n - 1; i >= 0; i-- {
			ok = row(i) && ok
		}
		return ok
	}
	_, _, err := ParseCSV(backwards, "a,b\n1,2\n3\n4,5\n6\n")
	if err == nil || !strings.Contains(err.Error(), "row 2 has 1 fields") {
		t.Fatalf("err %v, want row 2 named", err)
	}
	tab, _, _ := ParseCSV(nil, "a,b\n1,2\n")
	if c, err := tab.Col("missing"); err == nil {
		t.Fatalf("missing column read as %q", c)
	}
}

func TestParseCSVSkipsBlankLines(t *testing.T) {
	tab, counts, err := ParseCSV(nil, "a,b\n1,2\n\n3,4\n", "a,b\n\n5,\n")
	if err != nil {
		t.Fatal(err)
	}
	want := Table{Header: []string{"a", "b"}, Cols: [][]string{{"1", "3", "5"}, {"2", "4", ""}}}
	if !reflect.DeepEqual(tab, want) || !reflect.DeepEqual(counts, []int{2, 1}) {
		t.Fatalf("table %+v counts %v, want %+v [2 1]", tab, counts, want)
	}
	empty, counts, err := ParseCSV(nil, "a,b\n\n")
	if err != nil || empty.Rows() != 0 || empty.Cols[1] != nil || counts[0] != 0 {
		t.Fatalf("header only: %+v %v %v", empty, counts, err)
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
		train, test := GenerateCensusCSV(CensusConfig{TrainRows: n, TestRows: 1, Seed: seed})
		tab, counts, err := ParseCSV(nil, train, test)
		return err == nil && tab.Rows() == n+1 && counts[0] == n && counts[1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
