package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean wrong")
	}
}

func TestTrimmedMean(t *testing.T) {
	// 40 values 1..40: 2.5% trim discards 1 from each end.
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := TrimmedMean(xs, 0.025)
	want := Mean(xs[1:39]) // values 2..39
	if !almostEq(got, want) {
		t.Errorf("TrimmedMean = %v, want %v", got, want)
	}
	// Outliers are discarded.
	xs2 := append([]float64{}, xs...)
	xs2[0] = -1e9
	xs2[39] = 1e9
	if !almostEq(TrimmedMean95(xs2), want) {
		t.Error("trimmed mean should ignore extreme outliers")
	}
	// Trim of 0 equals the mean.
	if !almostEq(TrimmedMean(xs, 0), Mean(xs)) {
		t.Error("TrimmedMean(0) != Mean")
	}
	if TrimmedMean(nil, 0.1) != 0 {
		t.Error("TrimmedMean(nil) != 0")
	}
}

func TestTrimmedMeanDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	TrimmedMean(xs, 0.1)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("TrimmedMean mutated input")
	}
}

func TestTrimmedMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for trim >= 0.5")
		}
	}()
	TrimmedMean([]float64{1}, 0.5)
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := Percentile(xs, 50); got != 50 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 95); got != 100 {
		t.Errorf("P95 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 {
		t.Error("empty-slice default wrong")
	}
	// StdDev of identical values is 0.
	if StdDev([]float64{3, 3, 3}) != 0 {
		t.Error("StdDev of constants != 0")
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestDurations(t *testing.T) {
	out := Durations([]time.Duration{time.Second, 500 * time.Millisecond})
	if !almostEq(out[0], 1.0) || !almostEq(out[1], 0.5) {
		t.Errorf("Durations = %v", out)
	}
}

// Property: TrimmedMean lies between Min and Max, and trimming is invariant
// to permutation.
func TestTrimmedMeanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(100) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		tm := TrimmedMean95(xs)
		if tm < slices.Min(xs)-1e-9 || tm > slices.Max(xs)+1e-9 {
			return false
		}
		shuffled := append([]float64(nil), xs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return almostEq(TrimmedMean95(shuffled), tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
