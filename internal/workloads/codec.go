package workloads

import (
	"fmt"
	"reflect"
	"sort"

	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/store"
)

// Native layouts for the values the built-in workloads flow between
// operators and the engine therefore writes and loads: the parsed census
// table, feature columns, score vectors, the raw input
// pair, the reducers' reports, the IE workflow's candidates. (The types
// owned by internal/ml, internal/data and internal/nlp register theirs
// beside the type.) Without an extension the binary codec routes a value
// through its gob escape hatch — reflective, one allocation per field, and
// larger — and TestNoWorkloadArtifactOnGobEscapeHatch fails.
//
// The layouts are built from store's record kernels: row-major records
// whose string cells go through one dictionary per column
// (Writer.DictString), bitmaps for flags, and float columns in their
// smallest form (Writer.PackedFloat64s). Decoders check every count
// against the bytes that remain before allocating from it, and give the
// pieces of a value cap-limited windows of a few slabs (see the store
// package's codec documentation for the contract).
//
// Registration happens in init (not RegisterAll, which is called once
// per test and RegisterExt panics on duplicates). The Name strings are
// the on-disk type tags. A layout change takes a new name (the "/2"
// below) and deletes the old encoder: artifacts under the old name stop
// decoding ("unknown codec extension") and their operators are recomputed
// — testdata/parent holds artifacts written before the rename to keep
// that path tested.
func init() {
	for _, ext := range []store.Ext{
		{Name: "workloads.CensusTable", Type: reflect.TypeOf(CensusTable{}), Encode: encodeCensusTable, Decode: decodeCensusTable},
		{Name: "workloads.Column/2", Type: reflect.TypeOf(Column{}), Encode: encodeColumn, Decode: decodeColumn},
		{Name: "workloads.Predictions/2", Type: reflect.TypeOf(Predictions{}), Encode: encodePredictions, Decode: decodePredictions},
		{Name: "workloads.CensusData", Type: reflect.TypeOf(CensusData{}), Encode: encodeCensusData, Decode: decodeCensusData},
		{Name: "workloads.EvalReport", Type: reflect.TypeOf(EvalReport{}), Encode: encodeEvalReport, Decode: decodeEvalReport},
		{Name: "workloads.Candidates", Type: reflect.TypeOf([]Candidate(nil)), Encode: encodeCandidates, Decode: decodeCandidates},
		{Name: "workloads.GenomicsCorpus", Type: reflect.TypeOf(GenomicsCorpus{}), Encode: encodeGenomicsCorpus, Decode: decodeGenomicsCorpus},
		{Name: "workloads.IECorpus", Type: reflect.TypeOf(IECorpus{}), Encode: encodeIECorpus, Decode: decodeIECorpus},
	} {
		store.RegisterExt(ext)
	}
}

// encodeCensusTable stores the parsed table column-major, the way it is
// held:
//
//	n  train bitmap(n)  width  header  width × ( n cells )
//
// Each column's cells go through that column's own dictionary, so a
// categorical column costs a byte a cell and a column with more distinct
// values than a dictionary holds (fnlwgt) cannot crowd the others out.
func encodeCensusTable(w *store.Writer, v any) error {
	t := v.(CensusTable)
	n := len(t.Train)
	if len(t.Cols) != len(t.Header) {
		return fmt.Errorf("census table: %d columns under %d names", len(t.Cols), len(t.Header))
	}
	for j, col := range t.Cols {
		if len(col) != n {
			return fmt.Errorf("census table: column %q holds %d cells for %d rows", t.Header[j], len(col), n)
		}
	}
	w.Grow(n*len(t.Cols)*2 + n/8 + 16)
	w.Uvarint(uint64(n))
	w.Bitmap(n, func(i int) bool { return t.Train[i] })
	w.Uvarint(uint64(len(t.Header)))
	for _, name := range t.Header {
		w.RawString(name)
	}
	for _, col := range t.Cols {
		var dict store.Dict
		for _, cell := range col {
			w.DictString(&dict, cell)
		}
	}
	return nil
}

// decodeCensusTable cuts every column from one slab of cells, and copies
// each column's literals into one string its cells are cut from: a table
// decodes in a handful of allocations a column, however many distinct
// cells it holds. It reads the cells Writer.DictString wrote (a literal
// that takes the next dictionary id, a literal that takes none, or id+2)
// itself, for that arena. An empty table's slices are nil.
func decodeCensusTable(r *store.Reader) (any, error) {
	count, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if count > 8*uint64(r.Remaining()) { // a bit each, in the bitmap
		return nil, fmt.Errorf("census table: %d rows in %d bytes", count, r.Remaining())
	}
	n := int(count)
	train, err := r.Bitmap(n)
	if err != nil {
		return nil, err
	}
	width, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	var t CensusTable
	if width > 0 {
		t.Header, t.Cols = make([]string, width), make([][]string, width)
	}
	for j := range t.Header {
		if t.Header[j], err = r.RawString(); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return t, nil
	}
	if width > r.Remaining()/n { // a cell takes a byte at the least
		return nil, fmt.Errorf("census table: %d × %d cells in %d bytes", width, n, r.Remaining())
	}
	t.Train = make([]bool, n)
	for i := range t.Train {
		t.Train[i] = train.At(i)
	}
	if width == 0 {
		return t, nil
	}
	slab := make([]string, width*n)
	var (
		span  = make([][2]int, n) // cell i is arena[span[i][0]:span[i][1]]
		ids   [][2]int            // dictionary id → its literal's span
		arena []byte
	)
	for j := range t.Cols {
		ids, arena = ids[:0], arena[:0]
		for i := range span {
			ref, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if ref >= 2 {
				if ref-2 >= uint64(len(ids)) {
					return nil, fmt.Errorf("census table: column %q: dictionary reference %d out of range", t.Header[j], ref-2)
				}
				span[i] = ids[ref-2]
				continue
			}
			b, err := r.Bytes()
			if err != nil {
				return nil, err
			}
			span[i] = [2]int{len(arena), len(arena) + len(b)}
			arena = append(arena, b...)
			if ref == 0 {
				ids = append(ids, span[i])
			}
		}
		s := string(arena)
		t.Cols[j], slab = slab[:n:n], slab[n:]
		for i, sp := range span {
			t.Cols[j][i] = s[sp[0]:sp[1]]
		}
	}
	return t, nil
}

// Column forms: what the cells are.
const (
	columnCategorical = 0 // every cell a string
	columnNumeric     = 1 // every cell a number
	columnMixed       = 2 // a numeric-or-not bitmap says which
)

// encodeColumn splits an extractor column into its numeric cells, one
// packed float column, and its categorical cells, one dictionary:
//
//	name  n  form [bitmap(n)]  numbers  strings
func encodeColumn(w *store.Writer, v any) error {
	c := v.(Column)
	w.Grow(len(c.Name) + 2*len(c.Values) + 16)
	w.RawString(c.Name)
	w.Uvarint(uint64(len(c.Values)))
	numeric := 0
	for i := range c.Values {
		if c.Values[i].IsNumber {
			numeric++
		}
	}
	switch numeric {
	case 0:
		w.Uvarint(columnCategorical)
	case len(c.Values):
		w.Uvarint(columnNumeric)
	default:
		w.Uvarint(columnMixed)
		w.Bitmap(len(c.Values), func(i int) bool { return c.Values[i].IsNumber })
	}
	nums := make([]float64, 0, numeric)
	for i := range c.Values {
		if c.Values[i].IsNumber {
			nums = append(nums, c.Values[i].Num)
		}
	}
	w.PackedFloat64s(nums)
	var dict store.Dict
	for i := range c.Values {
		if !c.Values[i].IsNumber {
			w.DictString(&dict, c.Values[i].Str)
		}
	}
	return nil
}

func decodeColumn(r *store.Reader) (any, error) {
	name, err := r.RawString()
	if err != nil {
		return nil, err
	}
	count, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// A packed zero costs a bit, so a cell may take less than a byte.
	if count > 8*uint64(r.Remaining()) {
		return nil, fmt.Errorf("column %q: %d cells in %d bytes", name, count, r.Remaining())
	}
	n := int(count)
	form, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	var isNum store.Bits
	switch form {
	case columnCategorical, columnNumeric:
	case columnMixed:
		if isNum, err = r.Bitmap(n); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("column %q: unknown form %d", name, form)
	}
	nums, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	numeric := 0
	switch form {
	case columnNumeric:
		numeric = n
	case columnMixed:
		numeric = isNum.Count(n)
	}
	if len(nums) != numeric || n-numeric > r.Remaining() {
		return nil, fmt.Errorf("column %q: %d cells, %d numeric, but %d numbers and %d bytes of strings",
			name, n, numeric, len(nums), r.Remaining())
	}
	if n == 0 {
		return Column{Name: name}, nil
	}
	values := make([]ml.FeatureValue, n)
	var table []string
	for i := range values {
		if form == columnNumeric || (form == columnMixed && isNum.At(i)) {
			values[i] = ml.FeatureValue{Num: nums[0], IsNumber: true}
			nums = nums[1:]
		} else if values[i].Str, err = r.DictString(&table); err != nil {
			return nil, err
		}
	}
	return Column{Name: name, Values: values}, nil
}

// encodePredictions stores a model's inference output as two packed float
// columns and a bit-packed split flag — 17 bytes/row under gob, ~9 here.
func encodePredictions(w *store.Writer, v any) error {
	p := v.(Predictions)
	w.PackedFloat64s(p.Scores)
	w.PackedFloat64s(p.Labels)
	w.Bools(p.Train)
	return nil
}

func decodePredictions(r *store.Reader) (any, error) {
	scores, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	labels, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	train, err := r.Bools()
	if err != nil {
		return nil, err
	}
	return Predictions{Scores: scores, Labels: labels, Train: train}, nil
}

// encodeCensusData stores the raw CSV pair as what it is: two byte
// strings, copied once each way.
func encodeCensusData(w *store.Writer, v any) error {
	c := v.(CensusData)
	w.RawString(c.Train)
	w.RawString(c.Test)
	return nil
}

func decodeCensusData(r *store.Reader) (any, error) {
	train, err := r.RawString()
	if err != nil {
		return nil, err
	}
	test, err := r.RawString()
	if err != nil {
		return nil, err
	}
	return CensusData{Train: train, Test: test}, nil
}

// encodeEvalReport writes the metrics sorted by name: reports are declared
// outputs, compared byte for byte between runs, and map order is random.
// The count is offset by one so a nil map (0) stays nil.
func encodeEvalReport(w *store.Writer, v any) error {
	m := v.(EvalReport).Metrics
	if m == nil {
		w.Uvarint(0)
		return nil
	}
	w.Uvarint(uint64(len(m)) + 1)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.RawString(name)
		w.Float64(m[name])
	}
	return nil
}

func decodeEvalReport(r *store.Reader) (any, error) {
	count, err := r.Uvarint()
	if err != nil || count == 0 {
		return EvalReport{}, err
	}
	// A name's length byte and a float: 9 bytes a metric at the least.
	if count-1 > uint64(r.Remaining())/9 {
		return nil, fmt.Errorf("eval report: %d metrics in %d bytes", count-1, r.Remaining())
	}
	m := make(map[string]float64, count-1)
	for n := count - 1; n > 0; n-- {
		name, err := r.RawString()
		if err != nil {
			return nil, err
		}
		if m[name], err = r.Float64(); err != nil {
			return nil, err
		}
	}
	return EvalReport{Metrics: m}, nil
}

// encodeCandidates stores the IE workflow's person-pair mentions:
//
//	n  2n span lengths  labels  n × ( A B between… pos… )
//
// with one dictionary each for names, words and part-of-speech tags. The
// lengths come first so the decoder can cut every span from one slab.
func encodeCandidates(w *store.Writer, v any) error {
	cands := v.([]Candidate)
	w.Uvarint(uint64(len(cands)))
	if len(cands) == 0 {
		return nil
	}
	labels := make([]float64, len(cands))
	for i, c := range cands {
		w.Uvarint(uint64(len(c.Between)))
		w.Uvarint(uint64(len(c.POSSeq)))
		labels[i] = c.Label
	}
	w.PackedFloat64s(labels)
	var names, words, tags store.Dict
	for _, c := range cands {
		w.DictString(&names, c.A)
		w.DictString(&names, c.B)
		for _, s := range c.Between {
			w.DictString(&words, s)
		}
		for _, s := range c.POSSeq {
			w.DictString(&tags, s)
		}
	}
	return nil
}

func decodeCandidates(r *store.Reader) (any, error) {
	n, err := r.Count(4)
	if err != nil || n == 0 {
		return []Candidate(nil), err
	}
	lens := make([]int, 2*n)
	total := 0
	for i := range lens {
		if lens[i], err = r.Count(1); err != nil {
			return nil, err
		}
		if total += lens[i]; total > r.Remaining() {
			return nil, fmt.Errorf("candidates: %d span cells in %d bytes", total, r.Remaining())
		}
	}
	labels, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	if len(labels) != n {
		return nil, fmt.Errorf("candidates: %d labels for %d candidates", len(labels), n)
	}
	cands := make([]Candidate, n)
	slab := make([]string, total)
	var names, words, tags []string
	span := func(l int, table *[]string) ([]string, error) {
		if l == 0 {
			return nil, nil
		}
		out := slab[:l:l]
		slab = slab[l:]
		for j := range out {
			if out[j], err = r.DictString(table); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for i := range cands {
		c := &cands[i]
		c.Label = labels[i]
		if c.A, err = r.DictString(&names); err != nil {
			return nil, err
		}
		if c.B, err = r.DictString(&names); err != nil {
			return nil, err
		}
		if c.Between, err = span(lens[2*i], &words); err != nil {
			return nil, err
		}
		if c.POSSeq, err = span(lens[2*i+1], &tags); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// The two text corpora are their articles as raw strings followed by
// their knowledge base: a presence byte for the pointer, an entry count
// offset by one so a nil map (0) stays nil, and the entries sorted by key.

func encodeArticles(w *store.Writer, articles []data.Article) {
	w.Uvarint(uint64(len(articles)))
	for _, a := range articles {
		w.RawString(a.ID)
		w.RawString(a.Text)
	}
}

func decodeArticles(r *store.Reader) ([]data.Article, error) {
	n, err := r.Count(2)
	if err != nil || n == 0 {
		return nil, err
	}
	articles := make([]data.Article, n)
	for i := range articles {
		if articles[i].ID, err = r.RawString(); err != nil {
			return nil, err
		}
		if articles[i].Text, err = r.RawString(); err != nil {
			return nil, err
		}
	}
	return articles, nil
}

// encodeKB writes a knowledge base's map through cell, sorted by key.
func encodeKB[V any](w *store.Writer, present bool, m map[string]V, cell func(V)) {
	w.Bool(present)
	if !present || m == nil {
		w.Uvarint(0)
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)) + 1)
	for _, k := range keys {
		w.RawString(k)
		cell(m[k])
	}
}

// decodeKB reads what encodeKB wrote: whether there was a knowledge base
// at all, and its map (nil if it had none). cell reads one value; an
// entry is two bytes at the least.
func decodeKB[V any](r *store.Reader, cell func() (V, error)) (present bool, m map[string]V, err error) {
	if present, err = r.Bool(); err != nil {
		return false, nil, err
	}
	count, err := r.Uvarint()
	if err != nil || count == 0 {
		return present, nil, err
	}
	if count-1 > uint64(r.Remaining())/2 {
		return false, nil, fmt.Errorf("knowledge base: %d entries in %d bytes", count-1, r.Remaining())
	}
	m = make(map[string]V, count-1)
	for n := count - 1; n > 0; n-- {
		k, err := r.RawString()
		if err != nil {
			return false, nil, err
		}
		if m[k], err = cell(); err != nil {
			return false, nil, err
		}
	}
	return present, m, nil
}

func encodeGenomicsCorpus(w *store.Writer, v any) error {
	g := v.(GenomicsCorpus)
	encodeArticles(w, g.Articles)
	var genes map[string]int
	if g.KB != nil {
		genes = g.KB.Genes
		w.Varint(int64(g.KB.Groups))
	} else {
		w.Varint(0)
	}
	encodeKB(w, g.KB != nil, genes, func(group int) { w.Varint(int64(group)) })
	return nil
}

func decodeGenomicsCorpus(r *store.Reader) (any, error) {
	articles, err := decodeArticles(r)
	if err != nil {
		return nil, err
	}
	groups, err := r.Varint()
	if err != nil {
		return nil, err
	}
	present, genes, err := decodeKB(r, func() (int, error) {
		group, err := r.Varint()
		return int(group), err
	})
	if err != nil {
		return nil, err
	}
	g := GenomicsCorpus{Articles: articles}
	if present {
		g.KB = &data.GeneKB{Genes: genes, Groups: int(groups)}
	}
	return g, nil
}

func encodeIECorpus(w *store.Writer, v any) error {
	c := v.(IECorpus)
	encodeArticles(w, c.Articles)
	var pairs map[string]bool
	if c.KB != nil {
		pairs = c.KB.Pairs
	}
	encodeKB(w, c.KB != nil, pairs, w.Bool)
	return nil
}

func decodeIECorpus(r *store.Reader) (any, error) {
	articles, err := decodeArticles(r)
	if err != nil {
		return nil, err
	}
	present, pairs, err := decodeKB(r, r.Bool)
	if err != nil {
		return nil, err
	}
	c := IECorpus{Articles: articles}
	if present {
		c.KB = &data.SpouseKB{Pairs: pairs}
	}
	return c, nil
}
