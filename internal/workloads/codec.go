package workloads

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"helix/internal/data"
	"helix/internal/ml"
	"helix/internal/store"
)

// Native layouts for the values the built-in workloads flow between
// operators and the engine therefore writes and loads: tens of thousands
// of parsed census rows, feature columns, score vectors, the raw input
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
		{Name: "workloads.TaggedRows/2", Type: reflect.TypeOf([]TaggedRow(nil)), Encode: encodeTaggedRows, Decode: decodeTaggedRows},
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

// Row shapes of the TaggedRows layout.
const (
	rowFull    = 0 // a cell for every key seen so far
	rowPartial = 1 // a presence bitmap over the keys seen so far, then the present cells
	rowNewKeys = 2 // count + names of the keys this row is first to hold, then as rowPartial
	rowNil     = 3 // a nil map: no cells (gob tells nil from empty, so this does too)
)

// encodeTaggedRows stores parsed rows row-major, one record per row:
//
//	n  train bitmap(n)  n × ( shape [new keys] [presence bitmap] cells )
//
// The key table starts empty and grows as rows introduce keys (sorted
// within a row, so equal values encode to equal bytes); CSV rows share one
// schema, so the first row introduces every key and every later one is a
// rowFull byte followed by its cells. Each key's cells go through that
// key's own dictionary. A row's map is visited once, with one lookup per
// cell, while it is in cache.
func encodeTaggedRows(w *store.Writer, v any) error {
	rows := v.([]TaggedRow)
	w.Uvarint(uint64(len(rows)))
	if len(rows) == 0 {
		return nil
	}
	w.Grow(len(rows) * (2*len(rows[0].Row) + 8))
	w.Bitmap(len(rows), func(i int) bool { return rows[i].Train })
	var (
		keys  []string
		dicts []store.Dict
		vals  []string // this row's cell for keys[k], if has[k]
		has   []bool
	)
	presence := func(k int) bool { return has[k] }
	for _, tr := range rows {
		if tr.Row == nil {
			w.Uvarint(rowNil)
			continue
		}
		found := 0
		for k, key := range keys {
			if vals[k], has[k] = tr.Row[key]; has[k] {
				found++
			}
		}
		switch {
		case found < len(tr.Row):
			known := len(keys)
			for key := range tr.Row {
				if !slices.Contains(keys[:known], key) {
					keys = append(keys, key)
				}
			}
			sort.Strings(keys[known:]) // map order is random; the bytes must not be
			w.Uvarint(rowNewKeys)
			w.Uvarint(uint64(len(keys) - known))
			for _, key := range keys[known:] {
				w.RawString(key)
				vals, has = append(vals, tr.Row[key]), append(has, true)
			}
			dicts = append(dicts, make([]store.Dict, len(keys)-known)...)
			w.Bitmap(len(keys), presence)
		case found < len(keys):
			w.Uvarint(rowPartial)
			w.Bitmap(len(keys), presence)
		default:
			w.Uvarint(rowFull)
		}
		for k := range keys {
			if has[k] {
				w.DictString(&dicts[k], vals[k])
			}
		}
	}
	return nil
}

// decodeTaggedRows creates each row's map once, at its final size, and
// fills it while the row's cells stream past.
func decodeTaggedRows(r *store.Reader) (any, error) {
	n, err := r.Count(1)
	if err != nil || n == 0 {
		return []TaggedRow(nil), err
	}
	train, err := r.Bitmap(n)
	if err != nil {
		return nil, err
	}
	rows := make([]TaggedRow, n)
	var (
		keys   []string
		tables [][]string // per key: its dictionary so far
	)
	for i := range rows {
		rows[i].Train = train.At(i)
		shape, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		switch shape {
		case rowNil:
			continue
		case rowNewKeys:
			fresh, err := r.Count(1)
			if err != nil {
				return nil, err
			}
			for ; fresh > 0; fresh-- {
				key, err := r.RawString()
				if err != nil {
					return nil, err
				}
				keys, tables = append(keys, key), append(tables, nil)
			}
		case rowFull, rowPartial:
		default:
			return nil, fmt.Errorf("tagged rows: row %d has unknown shape %d", i, shape)
		}
		width := len(keys)
		var present store.Bits
		if shape != rowFull {
			if present, err = r.Bitmap(len(keys)); err != nil {
				return nil, err
			}
			width = present.Count(len(keys))
		}
		if width > r.Remaining() {
			return nil, fmt.Errorf("tagged rows: row %d claims %d cells, %d bytes remain", i, width, r.Remaining())
		}
		row := make(data.Row, width)
		for k, key := range keys {
			if present != nil && !present.At(k) {
				continue
			}
			if row[key], err = r.DictString(&tables[k]); err != nil {
				return nil, err
			}
		}
		rows[i].Row = row
	}
	return rows, nil
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
