package ml

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Transformer is a learned feature transformation T: x^d → x^d' (paper
// §3.1, "Feature Transformation"). Like Scikit-learn's Transformer, its
// behavior is fit to data before use.
type Transformer interface {
	// Transform maps one input value to its transformed representation.
	Transform(x float64) float64
}

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

// Indexer maps categorical string values to stable dense indices — the
// "human-readable formats (e.g., color=red) into an indexed vector
// representation" conversion of the paper's census workflow (§2.3). The
// mapping is learned from a full pass over the data so that train and test
// share one index space (unified learning support, §3.2.1).
type Indexer struct {
	index map[string]int
	names []string
}

// FitIndexer learns the value→index mapping from all observed values,
// assigning indices in sorted value order for determinism.
func FitIndexer(values []string) *Indexer {
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		seen[v] = true
	}
	names := make([]string, 0, len(seen))
	for v := range seen {
		names = append(names, v)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, v := range names {
		index[v] = i
	}
	return &Indexer{index: index, names: names}
}

// Index returns the dense index for value and whether it was seen at fit
// time.
func (ix *Indexer) Index(value string) (int, bool) {
	i, ok := ix.index[value]
	return i, ok
}

// Size returns the number of distinct indexed values.
func (ix *Indexer) Size() int { return len(ix.names) }

// Name returns the value at index i.
func (ix *Indexer) Name(i int) string { return ix.names[i] }

// OneHot returns the one-hot sparse encoding of value (all-zeros for
// unseen values, matching Scikit-learn's handle_unknown="ignore").
func (ix *Indexer) OneHot(value string) Vector {
	if i, ok := ix.index[value]; ok {
		return &SparseVector{N: len(ix.names), Idx: []int{i}, Val: []float64{1}}
	}
	return &SparseVector{N: len(ix.names)}
}

// ApproxBytes implements the engine's Sizer.
func (ix *Indexer) ApproxBytes() int64 {
	var b int64 = 16
	for _, n := range ix.names {
		b += int64(len(n)) + 24
	}
	return b
}

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
			f := fs.byName[name]
			if f == nil {
				f = &featureSlots{num: -1, cats: make(map[string]int)}
				fs.byName[name] = f
			}
			if v.IsNumber {
				f.num = 0 // seen as a number; the slot is assigned below
			} else if _, ok := f.cats[v.Str]; !ok {
				f.cats[v.Str] = 0
			}
		}
	}
	// One reference per distinct key, sorted; equal keys share a slot.
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
	return fs
}

// slotOf returns the slot of feature name's value v.
func (fs *FeatureSpace) slotOf(name string, v FeatureValue) (int, bool) {
	if f := fs.byName[name]; f != nil {
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

// Dim returns the dimensionality of the assembled vector space.
func (fs *FeatureSpace) Dim() int { return len(fs.names) }

// SlotName returns the human-readable name of coordinate i — the
// provenance bookkeeping that lets HELIX trace model weights back to
// operators (paper §5.4, data-driven pruning).
func (fs *FeatureSpace) SlotName(i int) string { return fs.names[i] }

// Vectorize converts a raw feature map into a sparse vector in the learned
// space. Unseen categorical values map to nothing. Should one row carry
// both halves of a colliding key (see featureSlots), the slot holds the
// larger value.
func (fs *FeatureSpace) Vectorize(rf RawFeatures) Vector {
	idx := make([]int, 0, len(rf))
	val := make([]float64, 0, len(rf))
	for name, v := range rf {
		slot, ok := fs.slotOf(name, v)
		if !ok {
			continue
		}
		x := v.Num
		if !v.IsNumber {
			x = 1
		}
		// Insertion into the sorted prefix: a row holds a handful of
		// features.
		k := len(idx)
		for k > 0 && idx[k-1] > slot {
			k--
		}
		if k > 0 && idx[k-1] == slot {
			val[k-1] = max(val[k-1], x)
			continue
		}
		idx = slices.Insert(idx, k, slot)
		val = slices.Insert(val, k, x)
	}
	return &SparseVector{N: len(fs.names), Idx: idx, Val: val}
}

// ApproxBytes implements the engine's Sizer.
func (fs *FeatureSpace) ApproxBytes() int64 {
	var b int64 = 16
	for _, n := range fs.names {
		b += int64(len(n)) + 24
	}
	return b
}
