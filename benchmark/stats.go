package main

import (
	"math"
	"sort"
)

// metric is one reported number: the median over its samples, with the
// quartiles and the sample count beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces samples to a metric. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), so a spread
// computed from them reads the same as the driver's.
func summarize(unit string, xs []float64) metric {
	if len(xs) == 0 {
		return metric{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metric{Value: quantile(s, 2), Unit: unit, Q1: quantile(s, 1), Q3: quantile(s, 3), N: len(s)}
}

// scalar reports a single measured value.
func scalar(unit string, v float64) metric { return summarize(unit, []float64{v}) }

// quantile returns the i-th quartile (i = 1, 2, 3) of sorted s.
func quantile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := min(max(i*m/4, 1), n-1)
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// percentile returns the p-th percentile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(math.Ceil(p/100*float64(len(s))))-1)]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
