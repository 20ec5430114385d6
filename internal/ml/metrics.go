package ml

import "sort"

// BinaryAccuracy thresholds probabilities at 0.5 before comparing.
func BinaryAccuracy(m Model, d *Dataset) float64 {
	var n, correct int
	for _, e := range d.Examples {
		if !e.HasLabel() {
			continue
		}
		n++
		pred := 0.0
		if m.Predict(e.X) >= 0.5 {
			pred = 1
		}
		if pred == e.Y {
			correct++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

// PRF1 holds precision, recall, and F1 for the positive class — the IE
// workflow's evaluation metric.
type PRF1 struct {
	Precision, Recall, F1 float64
	TP, FP, FN            int
}

// BinaryPRF1 computes precision/recall/F1 of the positive class over the
// labeled examples of d using threshold 0.5.
func BinaryPRF1(m Model, d *Dataset) PRF1 {
	var r PRF1
	for _, e := range d.Examples {
		if !e.HasLabel() {
			continue
		}
		pred := m.Predict(e.X) >= 0.5
		truth := e.Y >= 0.5
		switch {
		case pred && truth:
			r.TP++
		case pred && !truth:
			r.FP++
		case !pred && truth:
			r.FN++
		}
	}
	if r.TP+r.FP > 0 {
		r.Precision = float64(r.TP) / float64(r.TP+r.FP)
	}
	if r.TP+r.FN > 0 {
		r.Recall = float64(r.TP) / float64(r.TP+r.FN)
	}
	if r.Precision+r.Recall > 0 {
		r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
	}
	return r
}

// ClusterSummary describes a clustering for qualitative PPR evaluation
// (the genomics workflow's "more qualitative and exploratory evaluations",
// paper §6.2).
type ClusterSummary struct {
	K       int
	Sizes   []int
	Inertia float64
	// TopMembers lists up to sample member IDs per cluster.
	TopMembers [][]string
}

// SummarizeClusters assigns every example of d and aggregates sizes,
// within-cluster squared distance, and sample member IDs.
func SummarizeClusters(m *KMeansModel, d *Dataset, sample int) ClusterSummary {
	k := len(m.Centroids)
	s := ClusterSummary{K: k, Sizes: make([]int, k), TopMembers: make([][]string, k)}
	for _, e := range d.Examples {
		c, dist := m.Assign(e.X)
		s.Sizes[c]++
		s.Inertia += dist
		if len(s.TopMembers[c]) < sample {
			s.TopMembers[c] = append(s.TopMembers[c], e.ID)
		}
	}
	for c := range s.TopMembers {
		sort.Strings(s.TopMembers[c])
	}
	return s
}

// ApproxBytes implements the engine's Sizer.
func (s ClusterSummary) ApproxBytes() int64 {
	b := int64(16 + 8*len(s.Sizes))
	for _, ms := range s.TopMembers {
		for _, m := range ms {
			b += int64(len(m)) + 16
		}
	}
	return b
}
