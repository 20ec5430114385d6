package ml

import (
	"fmt"
	"reflect"
	"sort"

	"helix/internal/store"
)

// Native store layouts for the ml values workflows materialize: datasets
// above all (every workload's synthesizer output), and the genomics
// workflow's embeddings, clustering model and cluster summary. See
// internal/workloads/codec.go for the conventions shared by every
// extension (names, layout changes, bounds checks, slabs).
func init() {
	for _, ext := range []store.Ext{
		{Name: "ml.Dataset", Type: reflect.TypeOf(&Dataset{}), Encode: encodeDataset, Decode: decodeDataset},
		{Name: "ml.Embeddings", Type: reflect.TypeOf(&Embeddings{}), Encode: encodeEmbeddings, Decode: decodeEmbeddings},
		{Name: "ml.KMeansModel", Type: reflect.TypeOf(&KMeansModel{}), Encode: encodeKMeansModel, Decode: decodeKMeansModel},
		{Name: "ml.ClusterSummary", Type: reflect.TypeOf(ClusterSummary{}), Encode: encodeClusterSummary, Decode: decodeClusterSummary},
	} {
		store.RegisterExt(ext)
	}
}

// Vector kinds of the Dataset layout.
const (
	vecNil    = 0
	vecDense  = 1 // followed by its length
	vecSparse = 2 // followed by its dimension N and its number of stored coordinates
)

// encodeDataset stores a dataset column by column, CSR-style:
//
//	dim  n  labels  train bitmap(n)  ids  n vector headers  indices  values
//
// labels is one packed float column (NaN, "unlabeled", survives); ids is a
// 0 byte when no example has one, else a 1 byte and a dictionary column;
// a header is the vector's kind and sizes; indices holds every sparse
// vector's coordinates as gaps from the previous one; values is one
// packed float column of every stored value of every vector, in order.
// Vectors that break their type's invariants (unsorted or out-of-range
// sparse indices, Idx and Val of different lengths) are refused: the
// decoder checks the same invariants, and an artifact that cannot be
// loaded is worse than none.
func encodeDataset(w *store.Writer, v any) error {
	d := v.(*Dataset)
	if d == nil {
		return fmt.Errorf("ml: cannot encode a nil *Dataset")
	}
	n := len(d.Examples)
	w.Varint(int64(d.Dim))
	w.Uvarint(uint64(n))
	labels := make([]float64, n)
	for i := range d.Examples {
		labels[i] = d.Examples[i].Y
	}
	w.PackedFloat64s(labels)
	w.Bitmap(n, func(i int) bool { return d.Examples[i].Train })

	hasIDs := false
	for i := range d.Examples {
		if d.Examples[i].ID != "" {
			hasIDs = true
			break
		}
	}
	w.Bool(hasIDs)
	if hasIDs {
		var ids store.Dict
		for i := range d.Examples {
			w.DictString(&ids, d.Examples[i].ID)
		}
	}

	for i := range d.Examples {
		switch x := d.Examples[i].X.(type) {
		case nil:
			w.Uvarint(vecNil)
		case DenseVector:
			w.Uvarint(vecDense)
			w.Uvarint(uint64(len(x)))
		case *SparseVector:
			if x == nil || len(x.Idx) != len(x.Val) {
				return fmt.Errorf("ml: example %d: malformed sparse vector", i)
			}
			w.Uvarint(vecSparse)
			w.Varint(int64(x.N))
			w.Uvarint(uint64(len(x.Idx)))
		default:
			return fmt.Errorf("ml: example %d: no layout for vector type %T", i, x)
		}
	}
	for i := range d.Examples {
		x, ok := d.Examples[i].X.(*SparseVector)
		if !ok {
			continue
		}
		prev := -1
		for _, idx := range x.Idx {
			if idx <= prev || idx >= x.N {
				return fmt.Errorf("ml: example %d: sparse index %d after %d in dimension %d", i, idx, prev, x.N)
			}
			w.Uvarint(uint64(idx - prev - 1))
			prev = idx
		}
	}
	w.PackedFloat64Chunks(func(yield func([]float64) bool) {
		for i := range d.Examples {
			var vals []float64
			switch x := d.Examples[i].X.(type) {
			case DenseVector:
				vals = x
			case *SparseVector:
				vals = x.Val
			}
			if !yield(vals) {
				return
			}
		}
	})
	return nil
}

// decodeDataset builds the dataset from four allocations whatever its
// size — the examples, the sparse-vector structs, every index, every value
// — plus one string per distinct ID. Each vector gets a cap-limited window
// of the index and value slabs.
func decodeDataset(r *store.Reader) (any, error) {
	dim, err := r.Varint()
	if err != nil {
		return nil, err
	}
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Dim: int(dim)}
	labels, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	if len(labels) != n {
		return nil, fmt.Errorf("dataset: %d labels for %d examples", len(labels), n)
	}
	train, err := r.Bitmap(n)
	if err != nil {
		return nil, err
	}
	hasIDs, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if n > r.Remaining() { // a header byte each, still to come
		return nil, fmt.Errorf("dataset: %d examples in %d bytes", n, r.Remaining())
	}
	if n > 0 {
		d.Examples = make([]Example, n)
	}
	var ids []string
	for i := range d.Examples {
		e := &d.Examples[i]
		e.Y, e.Train = labels[i], train.At(i)
		if hasIDs {
			if e.ID, err = r.DictString(&ids); err != nil {
				return nil, err
			}
		}
	}

	// Headers first: they size the slabs.
	type header struct{ kind, n, stored int }
	headers := make([]header, n)
	sparse, indices, values := 0, 0, 0
	for i := range headers {
		h := &headers[i]
		kind, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		switch h.kind = int(kind); kind {
		case vecNil:
		case vecDense:
			stored, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			// A stored value costs a bit at the least.
			if stored > 8*uint64(r.Remaining()) {
				return nil, fmt.Errorf("dataset: example %d: %d values in %d bytes", i, stored, r.Remaining())
			}
			h.stored = int(stored)
		case vecSparse:
			dimN, err := r.Varint()
			if err != nil {
				return nil, err
			}
			if h.stored, err = r.Count(1); err != nil { // an index byte each
				return nil, err
			}
			h.n = int(dimN)
			sparse++
			indices += h.stored
		default:
			return nil, fmt.Errorf("dataset: example %d: unknown vector kind %d", i, kind)
		}
		if values += h.stored; indices > r.Remaining() || values > 8*r.Remaining() {
			return nil, fmt.Errorf("dataset: %d indices and %d values in %d bytes", indices, values, r.Remaining())
		}
	}

	idxSlab := make([]int, indices)
	at := 0
	for i := range headers {
		h := &headers[i]
		if h.kind != vecSparse {
			continue
		}
		prev := -1
		for j := 0; j < h.stored; j++ {
			gap, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if h.n <= prev+1 || gap >= uint64(h.n-prev-1) {
				return nil, fmt.Errorf("dataset: example %d: sparse index past dimension %d", i, h.n)
			}
			prev += int(gap) + 1
			idxSlab[at+j] = prev
		}
		at += h.stored
	}

	valSlab, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	if len(valSlab) != values {
		return nil, fmt.Errorf("dataset: %d values for vectors holding %d", len(valSlab), values)
	}
	vecSlab := make([]SparseVector, sparse)
	for i := range headers {
		h := &headers[i]
		var vals []float64
		if h.stored > 0 {
			vals, valSlab = valSlab[:h.stored:h.stored], valSlab[h.stored:]
		}
		switch h.kind {
		case vecDense:
			d.Examples[i].X = DenseVector(vals)
		case vecSparse:
			sv := &vecSlab[0]
			vecSlab = vecSlab[1:]
			sv.N, sv.Val = h.n, vals
			if h.stored > 0 {
				sv.Idx, idxSlab = idxSlab[:h.stored:h.stored], idxSlab[h.stored:]
			}
			d.Examples[i].X = sv
		}
	}
	return d, nil
}

// encodeDenseVectors writes count, every length, then one packed column.
func encodeDenseVectors(w *store.Writer, vs []DenseVector) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(uint64(len(v)))
	}
	w.PackedFloat64Chunks(func(yield func([]float64) bool) {
		for _, v := range vs {
			if !yield(v) {
				return
			}
		}
	})
}

// decodeDenseVectors returns cap-limited windows of one slab.
func decodeDenseVectors(r *store.Reader) ([]DenseVector, error) {
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	lens := make([]int, n)
	total := 0
	for i := range lens {
		l, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if l > 8*uint64(r.Remaining()) || total+int(l) > 8*r.Remaining() {
			return nil, fmt.Errorf("vectors: %d values in %d bytes", uint64(total)+l, r.Remaining())
		}
		lens[i] = int(l)
		total += int(l)
	}
	slab, err := r.PackedFloat64s()
	if err != nil {
		return nil, err
	}
	if len(slab) != total {
		return nil, fmt.Errorf("vectors: %d values for %d", len(slab), total)
	}
	if n == 0 {
		return nil, nil
	}
	vs := make([]DenseVector, n)
	for i, l := range lens {
		if l > 0 {
			vs[i], slab = DenseVector(slab[:l:l]), slab[l:]
		}
	}
	return vs, nil
}

// encodeEmbeddings writes the vocabulary sorted (map order is random, the
// bytes must not be) and the vectors as one column. The count is offset
// by one so a nil map (0) stays nil.
func encodeEmbeddings(w *store.Writer, v any) error {
	e := v.(*Embeddings)
	if e == nil {
		return fmt.Errorf("ml: cannot encode a nil *Embeddings")
	}
	w.Varint(int64(e.Dim))
	if e.Vectors == nil {
		w.Uvarint(0)
		return nil
	}
	words := make([]string, 0, len(e.Vectors))
	for word := range e.Vectors {
		words = append(words, word)
	}
	sort.Strings(words)
	w.Uvarint(uint64(len(words)) + 1)
	vs := make([]DenseVector, len(words))
	for i, word := range words {
		w.RawString(word)
		vs[i] = e.Vectors[word]
	}
	encodeDenseVectors(w, vs)
	return nil
}

func decodeEmbeddings(r *store.Reader) (any, error) {
	dim, err := r.Varint()
	if err != nil {
		return nil, err
	}
	e := &Embeddings{Dim: int(dim)}
	count, err := r.Uvarint()
	if err != nil || count == 0 {
		return e, err
	}
	// A word's length byte and its vector's: 2 bytes a word at the least.
	if count-1 > uint64(r.Remaining())/2 {
		return nil, fmt.Errorf("embeddings: %d words in %d bytes", count-1, r.Remaining())
	}
	words := make([]string, count-1)
	for i := range words {
		if words[i], err = r.RawString(); err != nil {
			return nil, err
		}
	}
	vs, err := decodeDenseVectors(r)
	if err != nil {
		return nil, err
	}
	if len(vs) != len(words) {
		return nil, fmt.Errorf("embeddings: %d vectors for %d words", len(vs), len(words))
	}
	e.Vectors = make(map[string]DenseVector, len(words))
	for i, word := range words {
		e.Vectors[word] = vs[i]
	}
	return e, nil
}

func encodeKMeansModel(w *store.Writer, v any) error {
	m := v.(*KMeansModel)
	if m == nil {
		return fmt.Errorf("ml: cannot encode a nil *KMeansModel")
	}
	encodeDenseVectors(w, m.Centroids)
	return nil
}

func decodeKMeansModel(r *store.Reader) (any, error) {
	centroids, err := decodeDenseVectors(r)
	if err != nil {
		return nil, err
	}
	return &KMeansModel{Centroids: centroids}, nil
}

// encodeClusterSummary: K, the sizes, the inertia, then the sample member
// IDs as per-cluster counts and one dictionary column.
func encodeClusterSummary(w *store.Writer, v any) error {
	s := v.(ClusterSummary)
	w.Varint(int64(s.K))
	w.Uvarint(uint64(len(s.Sizes)))
	for _, size := range s.Sizes {
		w.Varint(int64(size))
	}
	w.Float64(s.Inertia)
	w.Uvarint(uint64(len(s.TopMembers)))
	for _, members := range s.TopMembers {
		w.Uvarint(uint64(len(members)))
	}
	var ids store.Dict
	for _, members := range s.TopMembers {
		for _, id := range members {
			w.DictString(&ids, id)
		}
	}
	return nil
}

func decodeClusterSummary(r *store.Reader) (any, error) {
	k, err := r.Varint()
	if err != nil {
		return nil, err
	}
	s := ClusterSummary{K: int(k)}
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		s.Sizes = make([]int, n)
	}
	for i := range s.Sizes {
		size, err := r.Varint()
		if err != nil {
			return nil, err
		}
		s.Sizes[i] = int(size)
	}
	if s.Inertia, err = r.Float64(); err != nil {
		return nil, err
	}
	if n, err = r.Count(1); err != nil {
		return nil, err
	}
	lens := make([]int, n)
	total := 0
	for i := range lens {
		if lens[i], err = r.Count(1); err != nil {
			return nil, err
		}
		if total += lens[i]; total > r.Remaining() {
			return nil, fmt.Errorf("cluster summary: %d member ids in %d bytes", total, r.Remaining())
		}
	}
	if n > 0 {
		s.TopMembers = make([][]string, n)
	}
	slab := make([]string, total)
	var ids []string
	for i, l := range lens {
		if l == 0 {
			continue
		}
		s.TopMembers[i], slab = slab[:l:l], slab[l:]
		for j := range s.TopMembers[i] {
			if s.TopMembers[i][j], err = r.DictString(&ids); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
