package nlp

import (
	"fmt"
	"reflect"

	"helix/internal/store"
)

// Native store layout for the parse the IE workflow reuses in every
// iteration; see internal/workloads/codec.go for the conventions every
// extension shares.
func init() {
	store.RegisterExt(store.Ext{
		Name:   "nlp.Documents",
		Type:   reflect.TypeOf([]Document(nil)),
		Encode: encodeDocuments,
		Decode: decodeDocuments,
	})
}

// encodeDocuments stores parsed documents as
//
//	n  n × (id, sentence count)  every sentence's token count  tokens
//
// where a token is two cells, text and tag, each in its column's own
// dictionary: a corpus repeats its vocabulary, and its tag set is tiny.
func encodeDocuments(w *store.Writer, v any) error {
	docs := v.([]Document)
	w.Uvarint(uint64(len(docs)))
	for i := range docs {
		w.RawString(docs[i].ID)
		w.Uvarint(uint64(len(docs[i].Sentences)))
	}
	for i := range docs {
		for _, s := range docs[i].Sentences {
			w.Uvarint(uint64(len(s)))
		}
	}
	var texts, tags store.Dict
	for i := range docs {
		for _, s := range docs[i].Sentences {
			for _, t := range s {
				w.DictString(&texts, t.Text)
				w.DictString(&tags, t.POS)
			}
		}
	}
	return nil
}

// decodeDocuments cuts every document's sentences and every sentence's
// tokens from one slab each, cap-limited.
func decodeDocuments(r *store.Reader) (any, error) {
	n, err := r.Count(2)
	if err != nil || n == 0 {
		return []Document(nil), err
	}
	docs := make([]Document, n)
	counts := make([]int, n)
	sentences := 0
	for i := range docs {
		if docs[i].ID, err = r.RawString(); err != nil {
			return nil, err
		}
		if counts[i], err = r.Count(1); err != nil {
			return nil, err
		}
		if sentences += counts[i]; sentences > r.Remaining() {
			return nil, fmt.Errorf("documents: %d sentences in %d bytes", sentences, r.Remaining())
		}
	}
	sentSlab := make([]Sentence, sentences)
	lens := make([]int, sentences)
	tokens := 0
	for i := range lens {
		if lens[i], err = r.Count(2); err != nil {
			return nil, err
		}
		if tokens += lens[i]; tokens > r.Remaining()/2 {
			return nil, fmt.Errorf("documents: %d tokens in %d bytes", tokens, r.Remaining())
		}
	}
	tokSlab := make([]Token, tokens)
	var texts, tags []string
	for i := range tokSlab {
		if tokSlab[i].Text, err = r.DictString(&texts); err != nil {
			return nil, err
		}
		if tokSlab[i].POS, err = r.DictString(&tags); err != nil {
			return nil, err
		}
	}
	for i, l := range lens {
		if l > 0 {
			sentSlab[i], tokSlab = tokSlab[:l:l], tokSlab[l:]
		}
	}
	for i, c := range counts {
		if c > 0 {
			docs[i].Sentences, sentSlab = sentSlab[:c:c], sentSlab[c:]
		}
	}
	return docs, nil
}
