package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sketch is a streaming quantile sketch with a relative-error guarantee:
// Quantile(p) returns a value within RelErr of an exact nearest-rank
// percentile over everything Added, in O(log(max/min) / RelErr) memory
// regardless of the sample count. It replaces full sample retention in the
// load runner, where an open-loop sweep can observe millions of latencies.
//
// The construction is the DDSketch log-bucket scheme: a positive value x
// lands in bucket ceil(log_γ(x)) with γ = (1+ε)/(1-ε), and the bucket's
// midpoint 2γ^i/(γ+1) is within ε of every value the bucket can hold.
// Non-positive values are counted in a dedicated zero bucket (latencies
// are positive; clamped zeros still count toward ranks). A Sketch is not
// safe for concurrent use.
type Sketch struct {
	relErr  float64
	gamma   float64
	lnGamma float64
	buckets map[int]uint64
	zero    uint64 // values <= 0
	n       uint64
	min     float64
	max     float64
	sum     float64
}

// NewSketch returns an empty sketch with the given relative error bound
// (0 < relErr < 1; 0.01 gives ~1% quantile error in a few hundred buckets
// across nanoseconds-to-hours of latency).
func NewSketch(relErr float64) *Sketch {
	if !(relErr > 0 && relErr < 1) {
		panic(fmt.Sprintf("stats: sketch relative error %v outside (0, 1)", relErr))
	}
	gamma := (1 + relErr) / (1 - relErr)
	return &Sketch{
		relErr:  relErr,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		buckets: make(map[int]uint64),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// RelErr returns the configured relative error bound.
func (s *Sketch) RelErr() float64 { return s.relErr }

// Add records one observation.
func (s *Sketch) Add(x float64) {
	s.n++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= 0 {
		s.zero++
		return
	}
	s.buckets[int(math.Ceil(math.Log(x)/s.lnGamma))]++
}

// Count returns the number of observations.
func (s *Sketch) Count() int { return int(s.n) }

// Min returns the exact minimum, or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum, or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Mean returns the exact arithmetic mean, or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Quantile returns the p-th percentile (0 <= p <= 100) by nearest rank,
// within the relative error bound. Empty sketches return 0.
func (s *Sketch) Quantile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: invalid percentile %v", p))
	}
	if s.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.n)))
	if rank == 0 {
		rank = 1
	}
	if rank <= s.zero {
		return clamp(0, s.min, s.max)
	}
	seen := s.zero
	keys := make([]int, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		seen += s.buckets[k]
		if seen >= rank {
			// Bucket i holds (γ^(i-1), γ^i]; the midpoint estimator is
			// within relErr of every member.
			est := 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
			return clamp(est, s.min, s.max)
		}
	}
	return s.max // unreachable if counts are consistent
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
