package core

import (
	"math"
	"time"
)

// statDecay is the per-observation geometric decay applied to the weight
// of all history when a new cost observation arrives. 0.6 keeps roughly
// 2.5 observations' worth of effective history (1/(1-d)), so an estimate
// converges to a shifted regime within two or three runs while still
// smoothing one-off scheduling noise.
const statDecay = 0.6

// CostStat is a decayed online estimator of one scalar cost (seconds):
// an exponentially weighted mean and variance maintained incrementally
// (weighted Welford update under geometric decay). It replaces last-value
// cost carrying: a single anomalous run moves the estimate, but does not
// replace it, and stale history is forgotten at rate statDecay per new
// observation.
//
// The zero value is an empty estimator. Fields are exported (with JSON
// tags) so the estimator rides along inside Metrics through session
// snapshots.
type CostStat struct {
	// Mean is the decayed weighted mean of observations, in seconds.
	Mean float64 `json:"mean"`
	// M2 is the decayed weighted sum of squared deviations; Var derives
	// the variance from it.
	M2 float64 `json:"m2,omitempty"`
	// Weight is the total decayed observation weight (the newest
	// observation contributes 1; history contributes Weight·statDecay).
	Weight float64 `json:"weight,omitempty"`
}

// Observe folds one observation (seconds) into the estimator: all prior
// weight decays by statDecay, then x joins with weight 1.
func (s *CostStat) Observe(x float64) {
	w := s.Weight*statDecay + 1
	s.M2 *= statDecay
	delta := x - s.Mean
	mean := s.Mean + delta/w
	s.M2 += delta * (x - mean)
	s.Mean = mean
	s.Weight = w
}

// Var returns the decayed weighted variance, or 0 with fewer than two
// observations' weight.
func (s *CostStat) Var() float64 {
	if s.Weight <= 1 {
		return 0
	}
	return s.M2 / s.Weight
}

// Std returns the decayed weighted standard deviation.
func (s *CostStat) Std() float64 { return math.Sqrt(s.Var()) }

// sanitized returns s, or the empty estimator when s cannot have come
// from Observe: a non-positive or non-finite weight, or a non-finite mean
// or variance sum.
func (s CostStat) sanitized() CostStat {
	if s.Weight > 0 && !math.IsInf(s.Weight, 0) && finite(s.Mean) && finite(s.M2) {
		return s
	}
	return CostStat{}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Empty reports whether the estimator has seen no observations.
func (s *CostStat) Empty() bool { return s.Weight == 0 }

// ObserveCompute folds a measured compute duration into the node's
// statistics: the decayed estimator absorbs the observation and the
// point estimate the optimizers read (Metrics.Compute) becomes the
// decayed mean, so every existing consumer is transparently corrected.
func (m *Metrics) ObserveCompute(d time.Duration) {
	m.ComputeStat.Observe(d.Seconds())
	m.Compute = time.Duration(m.ComputeStat.Mean * float64(time.Second))
	m.Known = true
}

// ObserveLoad is ObserveCompute for a measured load duration.
func (m *Metrics) ObserveLoad(d time.Duration) {
	m.LoadStat.Observe(d.Seconds())
	m.Load = time.Duration(m.LoadStat.Mean * float64(time.Second))
	m.Known = true
}
