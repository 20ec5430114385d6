package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeans is Lloyd's algorithm with k-means++ initialization — the
// clustering learner of the genomics workflow (paper Example 1: "cluster
// the vector representation of genes ... to identify functional
// similarity").
type KMeans struct {
	K        int
	MaxIters int   // 0 selects 50
	Seed     int64 // deterministic initialization
}

// KMeansModel is a fitted clustering: K centroids of shared dimension.
type KMeansModel struct {
	Centroids []DenseVector
}

// Predict implements Model: it returns the index of the nearest centroid.
func (m *KMeansModel) Predict(x Vector) float64 {
	k, _ := m.nearest(x)
	return float64(k)
}

// Assign returns the nearest centroid index and the squared distance.
func (m *KMeansModel) Assign(x Vector) (int, float64) { return m.nearest(x) }

// ApproxBytes implements the engine's Sizer.
func (m *KMeansModel) ApproxBytes() int64 {
	var b int64
	for _, c := range m.Centroids {
		b += int64(8 * len(c))
	}
	return b + 16
}

func (m *KMeansModel) nearest(x Vector) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for k, c := range m.Centroids {
		d := sqDist(c, x)
		if d < bestD {
			best, bestD = k, d
		}
	}
	return best, bestD
}

func sqDist(c DenseVector, x Vector) float64 {
	// ‖c−x‖² = ‖c‖² − 2c·x + ‖x‖²
	var cc, xx float64
	for _, v := range c {
		cc += v * v
	}
	cx := dotDense(x, c)
	x.ForEach(func(_ int, v float64) { xx += v * v })
	d := cc - 2*cx + xx
	if d < 0 {
		return 0 // numeric noise
	}
	return d
}

// Inertia returns the total within-cluster squared distance over d —
// the qualitative evaluation metric of the genomics workflow's PPR step.
func (m *KMeansModel) Inertia(d *Dataset) float64 {
	var total float64
	for _, e := range d.Examples {
		_, dist := m.nearest(e.X)
		total += dist
	}
	return total
}

// Fit clusters all examples of d (labels are ignored; unsupervised).
func (km KMeans) Fit(d *Dataset) (*KMeansModel, error) {
	if km.K < 1 {
		return nil, fmt.Errorf("ml: kmeans: K must be ≥1, got %d", km.K)
	}
	n := len(d.Examples)
	if n == 0 {
		return nil, fmt.Errorf("ml: kmeans: empty dataset")
	}
	if km.K > n {
		return nil, fmt.Errorf("ml: kmeans: K=%d exceeds %d examples", km.K, n)
	}
	dim := d.Dim
	if dim == 0 {
		dim = d.Examples[0].X.Dim()
	}
	iters := km.MaxIters
	if iters <= 0 {
		iters = 50
	}
	rng := rand.New(rand.NewSource(km.Seed))

	// k-means++ seeding.
	centroids := make([]DenseVector, 0, km.K)
	first := toDense(d.Examples[rng.Intn(n)].X, dim)
	centroids = append(centroids, first.Clone())
	dists := make([]float64, n)
	for len(centroids) < km.K {
		var sum float64
		for i, e := range d.Examples {
			best := math.Inf(1)
			for _, c := range centroids {
				if dd := sqDist(c, e.X); dd < best {
					best = dd
				}
			}
			dists[i] = best
			sum += best
		}
		var pick int
		if sum <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * sum
			for i, dd := range dists {
				r -= dd
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		centroids = append(centroids, toDense(d.Examples[pick].X, dim).Clone())
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		model := &KMeansModel{Centroids: centroids}
		for i, e := range d.Examples {
			k, _ := model.nearest(e.X)
			if assign[i] != k {
				assign[i] = k
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		sums := make([]DenseVector, km.K)
		counts := make([]int, km.K)
		for k := range sums {
			sums[k] = Zeros(dim)
		}
		for i, e := range d.Examples {
			sums[assign[i]].AddScaled(1, e.X)
			counts[assign[i]]++
		}
		for k := range centroids {
			if counts[k] == 0 {
				// Re-seed an empty cluster at a random example.
				centroids[k] = toDense(d.Examples[rng.Intn(n)].X, dim).Clone()
				continue
			}
			sums[k].Scale(1 / float64(counts[k]))
			centroids[k] = sums[k]
		}
	}
	return &KMeansModel{Centroids: centroids}, nil
}

func toDense(x Vector, dim int) DenseVector {
	if dv, ok := x.(DenseVector); ok {
		return dv
	}
	out := Zeros(dim)
	x.ForEach(func(i int, v float64) { out[i] = v })
	return out
}
