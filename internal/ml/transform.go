package ml

import (
	"fmt"
	"math"
	"sort"
)

// Bucketizer discretizes a continuous feature into equal-frequency bins
// whose boundaries are learned from the data — the ageBucket operator of
// the census workflow (paper Figure 3a, line 11: "discretizing age into
// ten buckets (whose boundaries are computed by HELIX)").
type Bucketizer struct {
	// Boundaries are the learned right-exclusive bin edges (len = bins-1).
	Boundaries []float64
}

// FitBucketizer learns bins equal-frequency bucket boundaries from values.
func FitBucketizer(values []float64, bins int) (*Bucketizer, error) {
	if bins < 2 {
		return nil, fmt.Errorf("ml: bucketizer: need ≥2 bins, got %d", bins)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("ml: bucketizer: no values")
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	bounds := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		idx := b * len(sorted) / bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		v := sorted[idx]
		if len(bounds) == 0 || v > bounds[len(bounds)-1] {
			bounds = append(bounds, v)
		}
	}
	return &Bucketizer{Boundaries: bounds}, nil
}

// Transform returns the bucket index of x as a float64. A value equal to a
// boundary belongs to the bucket starting at that boundary.
func (b *Bucketizer) Transform(x float64) float64 {
	return float64(sort.Search(len(b.Boundaries), func(i int) bool { return b.Boundaries[i] > x }))
}

// NumBuckets returns the number of distinct buckets.
func (b *Bucketizer) NumBuckets() int { return len(b.Boundaries) + 1 }

// ApproxBytes implements the engine's Sizer.
func (b *Bucketizer) ApproxBytes() int64 { return int64(8*len(b.Boundaries)) + 16 }

// StandardScaler standardizes a feature to zero mean and unit variance,
// with statistics learned from the training data (a data-dependent DPR
// function; paper §3.1).
type StandardScaler struct {
	Mean, Std float64
}

// FitStandardScaler estimates mean and standard deviation from values.
func FitStandardScaler(values []float64) (*StandardScaler, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("ml: scaler: no values")
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(values)))
	if std == 0 {
		std = 1
	}
	return &StandardScaler{Mean: mean, Std: std}, nil
}

// Transform standardizes x.
func (s *StandardScaler) Transform(x float64) float64 { return (x - s.Mean) / s.Std }

// FeatureSpace assembles named raw features into indexed feature vectors.
// It is the synthesizer's backing structure: the order of features is
// "determined globally across D" (paper §3.2.1) by sorting feature names,
// and categorical features are expanded one-hot.
type FeatureSpace struct {
	// byName maps a raw feature's name to its slots; names[i] is slot i's
	// key, "feature=value" (categorical) or "feature" (numeric), and slots
	// maps each key back to its slot.
	byName map[string]*featureSlots
	slots  map[string]int
	names  []string
}

// featureSlots are one raw feature's coordinates: num for its numeric
// form (-1 when it never was a number), cats per categorical value. A
// numeric feature named "a=b" and the value b of a categorical feature a
// share one key, and so one slot.
type featureSlots struct {
	num  int
	cats map[string]int
}

// RawFeatures is the human-readable feature map produced by extractors:
// name → value, where value is either a number (numeric feature) or an
// arbitrary string (categorical feature).
type RawFeatures map[string]FeatureValue

// FeatureValue is a single raw feature value.
type FeatureValue struct {
	Num      float64
	Str      string
	IsNumber bool
}

// Num returns a numeric feature value.
func Num(v float64) FeatureValue { return FeatureValue{Num: v, IsNumber: true} }

// Cat returns a categorical feature value.
func Cat(s string) FeatureValue { return FeatureValue{Str: s} }

// FitFeatureSpace learns the global feature index from all raw feature
// maps in one pass (the paper's loop-fused "delayed and batched" learning
// of DPR functions, §3.2.1). Keys are built once per distinct feature
// and value, not per cell.
func FitFeatureSpace(all []RawFeatures) *FeatureSpace {
	fs := &FeatureSpace{byName: make(map[string]*featureSlots)}
	for _, rf := range all {
		for name, v := range rf {
			fs.feature(name).observe(v)
		}
	}
	fs.assignSlots()
	return fs
}

// FitFeatureSpaceColumns is FitFeatureSpace for rows that arrive
// column-major: cols[j][i] is row i's value of feature names[j]. The
// slots are those FitFeatureSpace gives the rows' maps; a feature is
// looked up once per column, not once per cell.
func FitFeatureSpaceColumns(names []string, cols [][]FeatureValue) *FeatureSpace {
	fs := &FeatureSpace{byName: make(map[string]*featureSlots)}
	for j, col := range cols {
		f := fs.feature(names[j])
		for i := range col {
			f.observe(col[i])
		}
	}
	fs.assignSlots()
	return fs
}

// feature returns name's slots, creating them on first sight.
func (fs *FeatureSpace) feature(name string) *featureSlots {
	f := fs.byName[name]
	if f == nil {
		f = &featureSlots{num: -1, cats: make(map[string]int)}
		fs.byName[name] = f
	}
	return f
}

// observe records that the feature took value v.
func (f *featureSlots) observe(v FeatureValue) {
	if v.IsNumber {
		f.num = 0 // seen as a number; the slot is assigned by assignSlots
	} else if _, ok := f.cats[v.Str]; !ok {
		f.cats[v.Str] = 0
	}
}

// assignSlots is the slot rule: every observed key — "name" for a numeric
// feature, "name=value" for each categorical value — sorted, with equal
// keys sharing a slot.
func (fs *FeatureSpace) assignSlots() {
	type slotRef struct {
		key string
		f   *featureSlots
		cat string
		num bool
	}
	var refs []slotRef
	for name, f := range fs.byName {
		if f.num == 0 {
			refs = append(refs, slotRef{key: name, f: f, num: true})
		}
		for v := range f.cats {
			refs = append(refs, slotRef{key: name + "=" + v, f: f, cat: v})
		}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].key < refs[b].key })
	fs.slots = make(map[string]int, len(refs))
	for _, r := range refs {
		if len(fs.names) == 0 || fs.names[len(fs.names)-1] != r.key {
			fs.slots[r.key] = len(fs.names)
			fs.names = append(fs.names, r.key)
		}
		slot := len(fs.names) - 1
		if r.num {
			r.f.num = slot
		} else {
			r.f.cats[r.cat] = slot
		}
	}
}

// slotOf returns the slot of feature f's value v; f is nil for a feature
// fit never saw.
func (fs *FeatureSpace) slotOf(f *featureSlots, name string, v FeatureValue) (int, bool) {
	if f != nil {
		if !v.IsNumber {
			if s, ok := f.cats[v.Str]; ok {
				return s, true
			}
		} else if f.num >= 0 {
			return f.num, true
		}
	}
	// A key fit never saw under this feature may still be another's (a
	// numeric "a=b" is categorical a's value b): the one path that builds
	// the key, taken only on a miss.
	s, ok := fs.slots[slotKey(name, v)]
	return s, ok
}

func slotKey(name string, v FeatureValue) string {
	if v.IsNumber {
		return name
	}
	return name + "=" + v.Str
}

// insertSorted adds (slot, x) to the sorted entries idx[:n], val[:n],
// which have room for one more, and returns the new count. Should the row
// already hold slot — both halves of a colliding key (see featureSlots) —
// the slot keeps the larger value.
func insertSorted(idx []int, val []float64, n, slot int, x float64) int {
	k := n
	for k > 0 && idx[k-1] > slot {
		k--
	}
	if k > 0 && idx[k-1] == slot {
		val[k-1] = max(val[k-1], x)
		return n
	}
	copy(idx[k+1:n+1], idx[k:n])
	copy(val[k+1:n+1], val[k:n])
	idx[k], val[k] = slot, x
	return n + 1
}

// Dim returns the dimensionality of the assembled vector space.
func (fs *FeatureSpace) Dim() int { return len(fs.names) }

// Vectorize converts a raw feature map into a sparse vector in the learned
// space. Unseen categorical values map to nothing.
func (fs *FeatureSpace) Vectorize(rf RawFeatures) Vector {
	idx := make([]int, len(rf))
	val := make([]float64, len(rf))
	n := 0
	for name, v := range rf {
		if slot, ok := fs.slotOf(fs.byName[name], name, v); ok {
			n = insertSorted(idx, val, n, slot, v.value())
		}
	}
	return &SparseVector{N: len(fs.names), Idx: idx[:n], Val: val[:n]}
}

// VectorizeColumns is Vectorize for every row of column-major features
// (see FitFeatureSpaceColumns): row i's vector has the coordinates
// Vectorize gives row i's map. The vectors are cap-limited windows of one
// index slab and one value slab, in one slab of structs.
func (fs *FeatureSpace) VectorizeColumns(names []string, cols [][]FeatureValue) []SparseVector {
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	feats := make([]*featureSlots, len(cols))
	for j := range cols {
		feats[j] = fs.byName[names[j]]
	}
	idx := make([]int, rows*len(cols))
	val := make([]float64, rows*len(cols))
	out := make([]SparseVector, rows)
	at := 0
	for i := range out {
		ri, rv := idx[at:at+len(cols)], val[at:at+len(cols)]
		n := 0
		for j, col := range cols {
			if slot, ok := fs.slotOf(feats[j], names[j], col[i]); ok {
				n = insertSorted(ri, rv, n, slot, col[i].value())
			}
		}
		out[i] = SparseVector{N: len(fs.names), Idx: ri[:n:n], Val: rv[:n:n]}
		at += n
	}
	return out
}

// value is v's coordinate: its number, or 1 for a categorical value.
func (v FeatureValue) value() float64 {
	if v.IsNumber {
		return v.Num
	}
	return 1
}

// ApproxBytes implements the engine's Sizer.
func (fs *FeatureSpace) ApproxBytes() int64 {
	var b int64 = 16
	for _, n := range fs.names {
		b += int64(len(n)) + 24
	}
	return b
}
