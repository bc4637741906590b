package sched

import (
	"fmt"
	"time"

	"mqsched/internal/query"
)

// This file implements the paper's stated future work (§6):
//
//	"(1) the development of a combined strategy ... and (3) the
//	 incorporation of low level metrics (e.g., processing, I/O, and network
//	 bandwidth) into the query scheduling model."
//
// Combined merges SJF's shortness with CNBF's locality; ResourceAware folds
// live CPU/disk utilization into the rank.

// CPUCostEstimator is implemented by applications that can estimate the
// computational demand of a query (the "processing" low-level metric).
type CPUCostEstimator interface {
	QCPUCost(m query.Meta) time.Duration
}

// Combined implements the "combination of SJF and the other ranking
// strategies" the paper's conclusions suggest: the CNBF locality term (in
// reusable bytes) minus Beta times the query's input size (SJF's
// execution-time estimate, in bytes). Beta trades shortness against
// locality; Beta = 0 degenerates to CNBF, Beta → ∞ to SJF.
type Combined struct {
	// Beta weights the SJF term relative to the locality term (CombinedBeta
	// when built by name).
	Beta float64
}

// CombinedBeta is the SJF weight of the combined strategy built by name.
const CombinedBeta = 0.5

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
// ones. CPU demand is converted to "equivalent bytes" through raBytesPerSec
// so both penalties share the locality term's unit.
type ResourceAware struct {
	App   query.App
	Probe LoadProbe
	// CPU estimates computational demand; nil falls back to treating
	// output size as the compute proxy.
	CPU CPUCostEstimator
}

// raBytesPerSec converts CPU seconds to byte-equivalents: the farm's 25 MB/s
// transfer rate.
const raBytesPerSec = 25 << 20

// Name implements Policy.
func (ResourceAware) Name() string { return "ResourceAware" }

// Rank implements Policy.
func (r ResourceAware) Rank(n *Node) float64 {
	cpuUtil, diskUtil := 0.0, 0.0
	if r.Probe != nil {
		cpuUtil, diskUtil = r.Probe()
	}
	ioDemand := float64(n.qin)
	var cpuDemand float64
	if r.CPU != nil {
		cpuDemand = r.CPU.QCPUCost(n.Meta).Seconds() * raBytesPerSec
	} else {
		cpuDemand = float64(r.App.QOutSize(n.Meta))
	}
	return CNBF{}.Rank(n) - diskUtil*ioDemand - cpuUtil*cpuDemand
}
