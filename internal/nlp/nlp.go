// Package nlp is HELIX-Go's natural-language substrate, standing in for
// CoreNLP in the original system (paper §2.1: "domain-specific libraries
// such as CoreNLP ... for custom needs"). It provides tokenization,
// sentence splitting, a rule-based part-of-speech tagger, n-gram
// extraction, and vocabulary construction.
//
// What matters to HELIX is that the NLP parse is deterministic, expensive
// relative to downstream operators, and therefore profitably reusable
// (paper §6.5.2, NLP workflow: "The first operator in this workflow is a
// time-consuming NLP parsing operator, whose results are reusable for all
// subsequent iterations"). An optional CostFactor lets workloads calibrate
// the expense to reproduce that profile.
package nlp

import (
	"strings"
	"unicode"
)

// Token is one token of a parsed sentence with its part-of-speech tag.
type Token struct {
	Text string
	POS  string
}

// Sentence is an ordered sequence of tagged tokens.
type Sentence []Token

// Document is a parsed document: its identifier and sentences.
type Document struct {
	ID        string
	Sentences []Sentence
}

// ApproxBytes implements the execution engine's Sizer interface.
func (d Document) ApproxBytes() int64 {
	var b int64 = int64(len(d.ID)) + 16
	for _, s := range d.Sentences {
		for _, t := range s {
			b += int64(len(t.Text)+len(t.POS)) + 8
		}
	}
	return b
}

// Tokenize splits text into lowercase word tokens. Word characters are
// letters, digits, apostrophes and underscores (so canonicalized entity
// names like alice_adams survive as single tokens); any other rune is a
// separator and punctuation is dropped.
func Tokenize(text string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' || r == '_' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// SplitSentences splits text on sentence-final punctuation (. ! ?),
// returning non-empty trimmed sentences.
func SplitSentences(text string) []string {
	var out []string
	var cur strings.Builder
	for _, r := range text {
		cur.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// commonDeterminers, prepositions and pronouns for the rule-based tagger.
var (
	determiners  = wordSet("a", "an", "the", "this", "that", "these", "those")
	prepositions = wordSet("of", "in", "on", "at", "by", "for", "with", "to", "from", "about", "as")
	pronouns     = wordSet("he", "she", "it", "they", "we", "i", "you", "him", "her", "them", "us")
	conjunctions = wordSet("and", "or", "but", "nor", "so", "yet")
	beVerbs      = wordSet("is", "are", "was", "were", "be", "been", "being", "am")
)

func wordSet(words ...string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// TagPOS assigns a part-of-speech tag to each token with a deterministic
// rule cascade (closed-class lookup, then morphological suffix rules,
// defaulting to NN). It is a lightweight stand-in for CoreNLP's tagger;
// the workflows only require tags to be deterministic and distributionally
// plausible for feature extraction.
func TagPOS(tokens []string) Sentence {
	out := make(Sentence, len(tokens))
	for i, w := range tokens {
		out[i] = Token{Text: w, POS: tagWord(w, i)}
	}
	return out
}

func tagWord(w string, pos int) string {
	switch {
	case determiners[w]:
		return "DT"
	case prepositions[w]:
		return "IN"
	case pronouns[w]:
		return "PRP"
	case conjunctions[w]:
		return "CC"
	case beVerbs[w]:
		return "VB"
	case len(w) > 0 && unicode.IsDigit(rune(w[0])):
		return "CD"
	case strings.HasSuffix(w, "ly"):
		return "RB"
	case strings.HasSuffix(w, "ing") && len(w) > 4:
		return "VBG"
	case strings.HasSuffix(w, "ed") && len(w) > 3:
		return "VBD"
	case strings.HasSuffix(w, "es") && len(w) > 3, strings.HasSuffix(w, "s") && len(w) > 3 && !strings.HasSuffix(w, "ss"):
		return "NNS"
	case strings.HasSuffix(w, "tion"), strings.HasSuffix(w, "ment"), strings.HasSuffix(w, "ness"):
		return "NN"
	case strings.HasSuffix(w, "ive"), strings.HasSuffix(w, "ous"), strings.HasSuffix(w, "ful"), strings.HasSuffix(w, "able"):
		return "JJ"
	default:
		return "NN"
	}
}

// Parse runs the full pipeline on a raw text: sentence split, tokenize,
// POS tag. CostFactor ≥ 1 repeats the tagging work to calibrate expense
// (see package comment); the output is identical regardless of factor.
func Parse(id, text string, costFactor int) Document {
	if costFactor < 1 {
		costFactor = 1
	}
	doc := Document{ID: id}
	for _, s := range SplitSentences(text) {
		tokens := Tokenize(s)
		if len(tokens) == 0 {
			continue
		}
		var tagged Sentence
		for r := 0; r < costFactor; r++ {
			tagged = TagPOS(tokens)
		}
		doc.Sentences = append(doc.Sentences, tagged)
	}
	return doc
}
