// Package stats implements the summary statistics the paper reports:
// plain means, the 95%-trimmed mean used for query response times
// ("computed by discarding the lowest and highest 2.5% of the scores and
// taking the mean of the remaining scores", §5 footnote 3), percentiles,
// and small helpers for aggregating per-query samples.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TrimmedMean returns the mean of xs after discarding the lowest and highest
// trim fraction of the sorted values (trim = 0.025 gives the paper's
// 95%-trimmed mean). xs is not modified. trim must lie in [0, 0.5).
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if trim < 0 || trim >= 0.5 {
		panic(fmt.Sprintf("stats: invalid trim fraction %v", trim))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(math.Floor(float64(len(sorted)) * trim))
	kept := sorted[k : len(sorted)-k]
	return Mean(kept)
}

// TrimmedMean95 is the paper's 95%-trimmed mean (discard top and bottom
// 2.5%).
func TrimmedMean95(xs []float64) float64 { return TrimmedMean(xs, 0.025) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: invalid percentile %v", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[rank-1]
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Durations converts a slice of time.Duration samples to float64 seconds,
// the unit used in the experiment reports.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
