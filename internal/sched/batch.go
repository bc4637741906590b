package sched

import (
	"fmt"

	"mqsched/internal/query"
)

// DefaultBatchStarvation is the aging weight ByName gives the batch policy.
// At this blend a waiting query's rank decays by one "equivalent pending
// query" of hotness per 1/DefaultBatchStarvation later arrivals, so even a
// query overlapping nothing is eventually dequeued ahead of a perpetually
// hot stream.
const DefaultBatchStarvation = 0.05

// Batch is the data-driven ranking strategy behind the batch executor
// ("LifeRaft mode", after LifeRaft's data-driven batch processing): instead
// of ranking queries by their own cache affinity, it ranks them by how much
// *pending* demand touches the same data, so the server processes the
// hottest data unit once and fans the result out to everything waiting on
// it.
//
// The hotness of a node is the reuse-edge mass shared with other WAITING
// nodes, normalized by each edge's producer output size — w(i,k) =
// overlap(M_i,M_k)·qoutsize(M_i), so w/qoutsize is a pure overlap fraction
// in [0,1] and hotness counts "equivalent whole queries served" regardless
// of query size or application:
//
//	hot_i = Σ_{waiting k} w(i,k)/qoutsize(M_i) + Σ_{waiting k} w(k,i)/qoutsize(M_k)
//
// Starvation is the utility blend back toward arrival order: rank = hot −
// Starvation·Seq. With no overlapping load every hotness is zero and the
// ordering degenerates to exactly FIFO; under a perpetually hot stream a
// disjoint query arrived at sequence s0 outranks every arrival with
// Seq > s0 + hot_max/Starvation, which bounds its wait (the starvation
// deadline — see TestBatchStarvationBound).
type Batch struct {
	// App supplies qoutsize for edge normalization.
	App query.App
	// Starvation is the aging weight blending hotness back toward arrival
	// order. Zero disables aging (pure data-hotness order, starvation-prone).
	Starvation float64
}

// Name implements Policy.
func (b Batch) Name() string {
	return fmt.Sprintf("batch(s=%.2g)", b.Starvation)
}

// Rank implements Policy.
func (b Batch) Rank(n *Node) float64 {
	var hot float64
	if outSize := float64(b.App.QOutSize(n.Meta)); outSize > 0 {
		for k, w := range n.out {
			if k.state == Waiting {
				hot += w / outSize
			}
		}
	}
	for k, w := range n.in {
		if k.state != Waiting {
			continue
		}
		if ks := float64(b.App.QOutSize(k.Meta)); ks > 0 {
			hot += w / ks
		}
	}
	return hot - b.Starvation*float64(n.Seq)
}
