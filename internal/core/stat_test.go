package core

import (
	"math"
	"testing"
	"time"
)

func TestCostStatConverges(t *testing.T) {
	var s CostStat
	if !s.Empty() {
		t.Fatal("zero value should be empty")
	}
	for i := 0; i < 10; i++ {
		s.Observe(2.0)
	}
	if math.Abs(s.Mean-2.0) > 1e-9 {
		t.Fatalf("constant stream: mean = %v, want 2.0", s.Mean)
	}
	if s.Var() > 1e-9 {
		t.Fatalf("constant stream: var = %v, want 0", s.Var())
	}
}

func TestCostStatDecayForgets(t *testing.T) {
	var s CostStat
	for i := 0; i < 20; i++ {
		s.Observe(10.0)
	}
	// Regime change: the decayed estimator must approach the new level
	// within a handful of observations, unlike a plain running mean
	// (which after 20 tens and 8 ones would still sit near 7.4).
	for i := 0; i < 8; i++ {
		s.Observe(1.0)
	}
	if s.Mean > 1.2 {
		t.Fatalf("after regime change mean = %v, want ≤ 1.2", s.Mean)
	}
	// And it is not last-value: one outlier moves but does not replace.
	s.Observe(100.0)
	if s.Mean >= 100.0/2 {
		t.Fatalf("single outlier dominated: mean = %v", s.Mean)
	}
	if s.Mean <= 1.0 {
		t.Fatalf("single outlier ignored: mean = %v", s.Mean)
	}
}

func TestCostStatVariance(t *testing.T) {
	var s CostStat
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			s.Observe(1.0)
		} else {
			s.Observe(3.0)
		}
	}
	if s.Mean < 1.5 || s.Mean > 2.5 {
		t.Fatalf("alternating stream mean = %v, want ≈2", s.Mean)
	}
	if s.Std() < 0.5 || s.Std() > 1.5 {
		t.Fatalf("alternating stream std = %v, want ≈1", s.Std())
	}
}

func TestMetricsObserve(t *testing.T) {
	var m Metrics
	m.ObserveCompute(2 * time.Second)
	if !m.Known || m.Compute != 2*time.Second {
		t.Fatalf("after first observation: Known=%v Compute=%v", m.Known, m.Compute)
	}
	m.ObserveCompute(4 * time.Second)
	if m.Compute <= 2*time.Second || m.Compute >= 4*time.Second {
		t.Fatalf("second observation should blend: Compute=%v", m.Compute)
	}
	m.ObserveLoad(time.Second)
	if m.Load != time.Second {
		t.Fatalf("Load=%v, want 1s", m.Load)
	}
}

func TestCarryMetricsCarriesStats(t *testing.T) {
	prev := NewDAG()
	a := prev.MustAddNode("a", KindSource, DPR, "src|a|v1", true)
	prev.ComputeSignatures()
	a.Metrics.ObserveCompute(3 * time.Second)
	a.Metrics.ObserveCompute(3 * time.Second)

	next := NewDAG()
	b := next.MustAddNode("a", KindSource, DPR, "src|a|v1", true)
	next.ComputeSignatures()
	next.Track(prev)
	if b.Metrics.ComputeStat.Weight != a.Metrics.ComputeStat.Weight {
		t.Fatalf("estimator weight not carried: %v vs %v",
			b.Metrics.ComputeStat.Weight, a.Metrics.ComputeStat.Weight)
	}
	if b.Metrics.Compute != a.Metrics.Compute {
		t.Fatalf("point estimate not carried")
	}
}
