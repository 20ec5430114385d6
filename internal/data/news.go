package data

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
)

// IEConfig parameterizes the news-corpus generator for the information
// extraction workflow (paper §6.2): news articles with planted spouse-pair
// mentions plus a knowledge base of known spouse pairs for distant
// supervision, mirroring DeepDive's spouse example [19].
type IEConfig struct {
	Articles int
	// SentencesPerArticle controls document length.
	SentencesPerArticle int
	// People is the size of the person-name pool.
	People int
	// SpousePairs is the number of true married pairs planted in the KB.
	SpousePairs int
	Seed        int64
}

// SpouseKB is the knowledge base of known spouse pairs. Keys are
// canonical "a|b" with a < b lexicographically.
type SpouseKB struct {
	Pairs map[string]bool
}

// PairKey canonicalizes an unordered person pair.
func PairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Known reports whether (a, b) is a known spouse pair.
func (kb *SpouseKB) Known(a, b string) bool { return kb.Pairs[PairKey(a, b)] }

var firstNames = []string{
	"alice", "bob", "carol", "david", "emma", "frank", "grace", "henry",
	"irene", "jack", "karen", "leo", "maria", "nathan", "olivia", "peter",
	"quinn", "rachel", "sam", "tina", "victor", "wendy",
}

var lastNames = []string{
	"adams", "baker", "clark", "davis", "evans", "ford", "green", "hill",
	"irving", "jones", "king", "lewis", "moore", "nolan", "owens", "price",
}

// marriage-indicating connective phrases (positive evidence).
var marriagePhrases = []string{
	"married", "wed", "tied the knot with", "exchanged vows with",
	"celebrated their wedding with",
}

// non-marriage connective phrases (negative evidence).
var otherPhrases = []string{
	"met", "worked with", "debated", "interviewed", "sued",
	"campaigned against", "negotiated with", "dined with",
}

var newsFiller = []string{
	"yesterday", "in", "the", "city", "officials", "said", "report",
	"during", "a", "ceremony", "event", "company", "announced", "public",
	"attended", "by", "many", "guests", "local", "community",
}

// GenerateIE produces the news corpus and spouse knowledge base. Each
// article contains zero or more person-pair sentences; pairs in the KB
// predominantly co-occur with marriage phrases, so the extraction task is
// learnable (one-to-many input→example mapping, per Table 2).
func GenerateIE(cfg IEConfig) ([]Article, *SpouseKB) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	people := make([]string, cfg.People)
	for i := range people {
		people[i] = firstNames[i%len(firstNames)] + "_" + lastNames[(i/len(firstNames))%len(lastNames)]
	}
	kb := &SpouseKB{Pairs: make(map[string]bool, cfg.SpousePairs)}
	for len(kb.Pairs) < cfg.SpousePairs && cfg.People >= 2 {
		a := people[rng.Intn(len(people))]
		b := people[rng.Intn(len(people))]
		if a != b {
			kb.Pairs[PairKey(a, b)] = true
		}
	}

	sentences := cfg.SentencesPerArticle
	if sentences < 1 {
		sentences = 6
	}
	// Sorted, not map order: the seed alone must decide the corpus.
	kbPairs := make([][2]string, 0, len(kb.Pairs))
	for _, k := range slices.Sorted(maps.Keys(kb.Pairs)) {
		parts := strings.SplitN(k, "|", 2)
		kbPairs = append(kbPairs, [2]string{parts[0], parts[1]})
	}

	articles := make([]Article, cfg.Articles)
	for a := range articles {
		var b strings.Builder
		for s := 0; s < sentences; s++ {
			switch r := rng.Float64(); {
			case r < 0.3 && len(kbPairs) > 0:
				// Positive mention: known spouses + marriage phrase (90%).
				p := kbPairs[rng.Intn(len(kbPairs))]
				phrase := marriagePhrases[rng.Intn(len(marriagePhrases))]
				if rng.Float64() < 0.1 {
					phrase = otherPhrases[rng.Intn(len(otherPhrases))]
				}
				writeSentence(&b, rng, p[0], phrase, p[1])
			case r < 0.6 && cfg.People >= 2:
				// Negative mention: random pair + non-marriage phrase (90%).
				x := people[rng.Intn(len(people))]
				y := people[rng.Intn(len(people))]
				if x == y {
					continue
				}
				phrase := otherPhrases[rng.Intn(len(otherPhrases))]
				if rng.Float64() < 0.1 {
					phrase = marriagePhrases[rng.Intn(len(marriagePhrases))]
				}
				writeSentence(&b, rng, x, phrase, y)
			default:
				// Filler sentence with no person pair.
				n := 5 + rng.Intn(8)
				for w := 0; w < n; w++ {
					if w > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(newsFiller[rng.Intn(len(newsFiller))])
				}
				b.WriteString(". ")
			}
		}
		articles[a] = Article{ID: fmt.Sprintf("news%05d", a), Text: b.String()}
	}
	return articles, kb
}

func writeSentence(b *strings.Builder, rng *rand.Rand, subj, phrase, obj string) {
	lead := newsFiller[rng.Intn(len(newsFiller))]
	b.WriteString(lead)
	b.WriteByte(' ')
	b.WriteString(subj)
	b.WriteByte(' ')
	b.WriteString(phrase)
	b.WriteByte(' ')
	b.WriteString(obj)
	b.WriteByte(' ')
	b.WriteString(newsFiller[rng.Intn(len(newsFiller))])
	b.WriteString(". ")
}

// IsPersonToken reports whether a token came from the person-name pool
// (first_last form). Used by the IE workflow's candidate extractor.
func IsPersonToken(tok string) bool {
	i := strings.IndexByte(tok, '_')
	if i <= 0 || i == len(tok)-1 {
		return false
	}
	first, last := tok[:i], tok[i+1:]
	for _, f := range firstNames {
		if f == first {
			for _, l := range lastNames {
				if l == last {
					return true
				}
			}
			return false
		}
	}
	return false
}
