package sched

import (
	"fmt"
	"time"

	"mqsched/internal/query"
)

// This file implements the paper's stated future work (§6):
//
//	"(1) the development of a combined strategy and of the capability for
//	 self-tuning, ... and (3) the incorporation of low level metrics (e.g.,
//	 processing, I/O, and network bandwidth) into the query scheduling
//	 model."
//
// Combined merges SJF's shortness with CNBF's locality; AutoTune switches
// among base strategies online from observed response times; ResourceAware
// folds live CPU/disk utilization into the rank.

// CPUCostEstimator is implemented by applications that can estimate the
// computational demand of a query (the "processing" low-level metric).
type CPUCostEstimator interface {
	QCPUCost(m query.Meta) time.Duration
}

// Feedback is implemented by policies that learn from completed queries.
// The graph forwards every completion's response time; Observe returns true
// when the policy's ranking function changed and all WAITING ranks must be
// recomputed.
type Feedback interface {
	Observe(response time.Duration) bool
}

// Combined implements the "combination of SJF and the other ranking
// strategies" the paper's conclusions suggest: the CNBF locality term (in
// reusable bytes) minus Beta times the query's input size (SJF's
// execution-time estimate, in bytes). Beta trades shortness against
// locality; Beta = 0 degenerates to CNBF, Beta → ∞ to SJF.
type Combined struct {
	// Beta weights the SJF term relative to the locality term (default
	// 0.5 when constructed through ByName).
	Beta float64
}

// Name implements Policy.
func (c Combined) Name() string { return fmt.Sprintf("Combined(β=%.2g)", c.Beta) }

// Rank implements Policy.
func (c Combined) Rank(n *Node) float64 {
	return CNBF{}.Rank(n) - c.Beta*float64(n.qin)
}

// LoadProbe reports instantaneous resource utilization in [0, 1].
type LoadProbe func() (cpuUtil, diskUtil float64)

// ResourceAware ranks queries by locality while penalizing demand on
// whichever resource is currently loaded: when the disks are saturated it
// avoids scheduling I/O-heavy queries, when the CPUs are, compute-heavy
// ones. CPU demand is converted to "equivalent bytes" through BytesPerSec
// so both penalties share the locality term's unit.
type ResourceAware struct {
	App   query.App
	Probe LoadProbe
	// CPU estimates computational demand; nil falls back to treating
	// output size as the compute proxy.
	CPU CPUCostEstimator
	// BytesPerSec converts CPU seconds to byte-equivalents (default: the
	// farm's 25 MB/s transfer rate).
	BytesPerSec float64
}

// Name implements Policy.
func (ResourceAware) Name() string { return "ResourceAware" }

// Rank implements Policy.
func (r ResourceAware) Rank(n *Node) float64 {
	cpuUtil, diskUtil := 0.0, 0.0
	if r.Probe != nil {
		cpuUtil, diskUtil = r.Probe()
	}
	bps := r.BytesPerSec
	if bps == 0 {
		bps = 25 << 20
	}
	ioDemand := float64(n.qin)
	var cpuDemand float64
	if r.CPU != nil {
		cpuDemand = r.CPU.QCPUCost(n.Meta).Seconds() * bps
	} else {
		cpuDemand = float64(r.App.QOutSize(n.Meta))
	}
	return CNBF{}.Rank(n) - diskUtil*ioDemand - cpuUtil*cpuDemand
}

// AutoTune is the self-tuning capability: it carries a set of candidate
// strategies and switches among them online, measuring the mean response
// time each candidate achieves over a window of completed queries and
// preferring the best (with occasional exploration). It is deliberately
// simple — a windowed epsilon-greedy bandit — but demonstrates the feedback
// loop the paper proposes.
type AutoTune struct {
	candidates []Policy
	window     int
	epsilon    float64

	cur      int
	count    int
	sum      time.Duration
	mean     []float64 // smoothed mean response per candidate (seconds)
	seen     []int
	rngState uint64
}

// NewAutoTune builds a self-tuning policy over candidates (at least one).
// window is the number of completions between decisions (default 16);
// epsilon the exploration probability (default 0.2).
func NewAutoTune(candidates []Policy, window int, epsilon float64) *AutoTune {
	if len(candidates) == 0 {
		panic("sched: AutoTune with no candidates")
	}
	if window <= 0 {
		window = 16
	}
	if epsilon <= 0 {
		epsilon = 0.2
	}
	return &AutoTune{
		candidates: candidates,
		window:     window,
		epsilon:    epsilon,
		mean:       make([]float64, len(candidates)),
		seen:       make([]int, len(candidates)),
		rngState:   0x9e3779b97f4a7c15,
	}
}

// Name implements Policy.
func (a *AutoTune) Name() string {
	return fmt.Sprintf("AutoTune[%s]", a.candidates[a.cur].Name())
}

// Current returns the active candidate's index.
func (a *AutoTune) Current() int { return a.cur }

// Rank implements Policy by delegating to the active candidate. It is
// called with the graph's lock held, which also serializes Observe.
func (a *AutoTune) Rank(n *Node) float64 { return a.candidates[a.cur].Rank(n) }

// Observe implements Feedback: fold one completion into the window and
// possibly switch candidates at window boundaries.
func (a *AutoTune) Observe(response time.Duration) bool {
	a.count++
	a.sum += response
	if a.count < a.window {
		return false
	}
	obs := a.sum.Seconds() / float64(a.count)
	a.count, a.sum = 0, 0
	// Exponential smoothing of the active candidate's score.
	if a.seen[a.cur] == 0 {
		a.mean[a.cur] = obs
	} else {
		a.mean[a.cur] = 0.6*a.mean[a.cur] + 0.4*obs
	}
	a.seen[a.cur]++

	next := a.pick()
	if next == a.cur {
		return false
	}
	a.cur = next
	return true // ranking function changed: re-rank the waiting queue
}

// pick chooses the next candidate: unexplored first, then epsilon-greedy.
func (a *AutoTune) pick() int {
	for i := range a.candidates {
		if a.seen[i] == 0 {
			return i
		}
	}
	if a.rand() < a.epsilon {
		return int(a.rngNext() % uint64(len(a.candidates)))
	}
	best := 0
	for i := range a.candidates {
		if a.mean[i] < a.mean[best] {
			best = i
		}
	}
	return best
}

// rngNext is a tiny deterministic xorshift generator: AutoTune must not
// depend on global randomness so simulated runs stay reproducible.
func (a *AutoTune) rngNext() uint64 {
	x := a.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	a.rngState = x
	return x
}

func (a *AutoTune) rand() float64 {
	return float64(a.rngNext()%1e9) / 1e9
}
