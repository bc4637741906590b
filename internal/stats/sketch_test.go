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

// TestSketchMerge checks shard-and-merge equals one big sketch.
func TestSketchMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	whole := NewSketch(0.01)
	shards := []*Sketch{NewSketch(0.01), NewSketch(0.01), NewSketch(0.01)}
	for i := 0; i < 9999; i++ {
		x := rng.Float64() * 1000
		whole.Add(x)
		shards[i%3].Add(x)
	}
	merged := NewSketch(0.01)
	for _, sh := range shards {
		merged.Merge(sh)
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), whole.Count())
	}
	for _, p := range []float64{50, 95, 99, 100} {
		if got, want := merged.Quantile(p), whole.Quantile(p); got != want {
			t.Errorf("p%v: merged %v, whole %v", p, got, want)
		}
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Error("merged min/max disagree with whole-stream sketch")
	}
	// Summation order differs between shards and the whole stream; the
	// means agree up to float rounding.
	if math.Abs(merged.Mean()-whole.Mean())/whole.Mean() > 1e-12 {
		t.Errorf("merged mean %v, whole mean %v", merged.Mean(), whole.Mean())
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

// TestSketchMergeNilAndEmpty checks the no-op merges.
func TestSketchMergeNilAndEmpty(t *testing.T) {
	s := NewSketch(0.02)
	s.Add(5)
	s.Merge(nil)
	s.Merge(NewSketch(0.02))
	if s.Count() != 1 || s.Quantile(50) == 0 {
		t.Error("no-op merges changed the sketch")
	}
}

func TestSketchPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSketch(0) },
		func() { NewSketch(1) },
		func() { NewSketch(0.01).Quantile(101) },
		func() {
			a, b := NewSketch(0.01), NewSketch(0.02)
			b.Add(1)
			a.Merge(b)
		},
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
