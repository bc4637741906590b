package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSketchErrorBound compares sketch quantiles against exact nearest-rank
// percentiles on heavy-tailed random data: every estimate must land within
// the configured relative error of a value that truly has that rank.
func TestSketchErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, relErr := range []float64{0.01, 0.05} {
		s := NewSketch(relErr)
		xs := make([]float64, 20000)
		for i := range xs {
			// Log-normal: spans ~4 orders of magnitude, like latencies.
			xs[i] = math.Exp(rng.NormFloat64()*1.5 + 2)
			s.Add(xs[i])
		}
		for _, p := range []float64{1, 10, 25, 50, 90, 95, 99, 99.9, 100} {
			exact := Percentile(xs, p)
			got := s.Quantile(p)
			if math.Abs(got-exact)/exact > relErr+1e-9 {
				t.Errorf("relErr=%v p%v: sketch %.4f vs exact %.4f (off %.2f%%)",
					relErr, p, got, exact, math.Abs(got-exact)/exact*100)
			}
		}
		if s.Count() != len(xs) {
			t.Errorf("count %d, want %d", s.Count(), len(xs))
		}
		if got, want := s.Mean(), Mean(xs); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("mean %v, want exact %v", got, want)
		}
		if s.Min() != slices.Min(xs) || s.Max() != slices.Max(xs) {
			t.Errorf("min/max %v/%v, want exact %v/%v", s.Min(), s.Max(), slices.Min(xs), slices.Max(xs))
		}
	}
}

// TestSketchZeroAndEmpty covers the zero bucket and empty-sketch behavior.
func TestSketchZeroAndEmpty(t *testing.T) {
	s := NewSketch(0.01)
	if s.Quantile(50) != 0 || s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sketch should report zeros")
	}
	s.Add(0)
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(50); got != 0 {
		t.Errorf("median of {0,0,10} = %v, want 0", got)
	}
	if got := s.Quantile(100); got != 10 {
		t.Errorf("max quantile %v, want 10 (exact)", got)
	}
}

func TestSketchPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSketch(0) },
		func() { NewSketch(1) },
		func() { NewSketch(0.01).Quantile(101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
