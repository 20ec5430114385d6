package nlp

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("John married Jane, in 1999!")
	want := []string{"john", "married", "jane", "in", "1999"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeApostrophes(t *testing.T) {
	got := Tokenize("it's John's")
	if !reflect.DeepEqual(got, []string{"it's", "john's"}) {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ... !!! "); got != nil {
		t.Fatalf("Tokenize punctuation-only = %v, want nil", got)
	}
}

func TestSplitSentences(t *testing.T) {
	got := SplitSentences("First. Second! Third? Trailing without period")
	if len(got) != 4 {
		t.Fatalf("sentences = %v", got)
	}
	if got[0] != "First." || got[3] != "Trailing without period" {
		t.Fatalf("sentences = %v", got)
	}
}

func TestTagPOSClosedClasses(t *testing.T) {
	s := TagPOS([]string{"the", "cat", "is", "quickly", "running", "to", "them", "and", "7"})
	wantTags := []string{"DT", "NN", "VB", "RB", "VBG", "IN", "PRP", "CC", "CD"}
	for i, tok := range s {
		if tok.POS != wantTags[i] {
			t.Fatalf("tag[%d] %q = %s, want %s", i, tok.Text, tok.POS, wantTags[i])
		}
	}
}

func TestTagPOSSuffixRules(t *testing.T) {
	cases := map[string]string{
		"walked":    "VBD",
		"creation":  "NN",
		"happiness": "NN",
		"active":    "JJ",
		"wonderful": "JJ",
		"tables":    "NNS",
		"glass":     "NN", // -ss is not plural
	}
	for w, want := range cases {
		if got := tagWord(w, 0); got != want {
			t.Fatalf("tagWord(%q) = %s, want %s", w, got, want)
		}
	}
}

func TestParsePipeline(t *testing.T) {
	doc := Parse("d1", "The gene regulates growth. It binds proteins!", 1)
	if doc.ID != "d1" || len(doc.Sentences) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Sentences[0][0].Text != "the" || doc.Sentences[0][0].POS != "DT" {
		t.Fatalf("first token = %+v", doc.Sentences[0][0])
	}
}

func TestParseCostFactorPreservesOutput(t *testing.T) {
	text := "Alice married Bob in Paris. They live happily."
	d1 := Parse("x", text, 1)
	d5 := Parse("x", text, 5)
	if !reflect.DeepEqual(d1, d5) {
		t.Fatal("cost factor changed parse output")
	}
	d0 := Parse("x", text, 0) // clamps to 1
	if !reflect.DeepEqual(d1, d0) {
		t.Fatal("cost factor 0 not clamped")
	}
}

func TestPropertyParseDeterministic(t *testing.T) {
	words := []string{"gene", "disease", "married", "the", "quickly", "BRCA1", "analysis"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := 0; i < 3+rng.Intn(5); i++ {
			for j := 0; j < 2+rng.Intn(8); j++ {
				b.WriteString(words[rng.Intn(len(words))])
				b.WriteByte(' ')
			}
			b.WriteString(". ")
		}
		text := b.String()
		return reflect.DeepEqual(Parse("p", text, 1), Parse("p", text, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: token count is preserved between tokenization and tagging.
func TestPropertyTagPreservesTokens(t *testing.T) {
	f := func(text string) bool {
		tokens := Tokenize(text)
		tagged := TagPOS(tokens)
		if len(tagged) != len(tokens) {
			return false
		}
		for i := range tokens {
			if tagged[i].Text != tokens[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDocumentApproxBytes(t *testing.T) {
	d := Parse("doc", "Some words here.", 1)
	if d.ApproxBytes() <= 0 {
		t.Fatal("document size must be positive")
	}
}
