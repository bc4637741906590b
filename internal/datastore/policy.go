package datastore

import (
	"container/list"
	"fmt"
)

// Policy selects the manager's admission/eviction behaviour.
type Policy int

const (
	// PolicyLRU is the paper's behaviour: cache every result that fits and
	// evict by pure recency. It is the default and reproduces the pre-policy
	// manager's eviction order exactly (a differential test pins this).
	PolicyLRU Policy = iota
	// PolicyCost is the benefit-aware cache: eviction by GDSF-style priority
	// (observed hits × recompute cost / size, aged by an eviction clock),
	// and admission control with a ghost list for rejected/evicted
	// predicates.
	PolicyCost
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyCost:
		return "cost"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a flag value to a Policy; the empty string selects
// the default (lru).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "cost":
		return PolicyCost, nil
	}
	return 0, fmt.Errorf("datastore: unknown cache policy %q (want lru or cost)", s)
}

// ghostList remembers predicates of results that were recently rejected by
// admission control or evicted, without holding their bytes. A re-insert of
// a ghosted predicate is evidence of reuse: its recorded count feeds the
// newcomer's expected-benefit estimate, so repeatedly produced results win
// admission even against an established population. Bounded FIFO: a ghost
// holds one slot of order from add to take or displacement, so the list
// never outgrows cap and a re-added ghost queues behind the older ones.
type ghostList struct {
	cap   int
	m     map[string]*list.Element // a live ghost's slot in order
	order *list.List               // of *ghost, oldest first
}

type ghost struct {
	key  string
	hits int64
}

func newGhostList(capacity int) *ghostList {
	return &ghostList{cap: capacity, m: make(map[string]*list.Element), order: list.New()}
}

// add records (or refreshes) a ghost with the given expected-reuse count.
// A refresh keeps the larger count and the ghost's place in the FIFO.
func (g *ghostList) add(key string, hits int64) {
	if g.cap <= 0 {
		return
	}
	if el, ok := g.m[key]; ok {
		if gh := el.Value.(*ghost); hits > gh.hits {
			gh.hits = hits
		}
		return
	}
	g.m[key] = g.order.PushBack(&ghost{key, hits})
	if g.order.Len() > g.cap {
		delete(g.m, g.order.Remove(g.order.Front()).(*ghost).key)
	}
}

// take removes and returns the ghost's count, reporting whether it existed.
func (g *ghostList) take(key string) (int64, bool) {
	el, ok := g.m[key]
	if !ok {
		return 0, false
	}
	delete(g.m, key)
	return g.order.Remove(el).(*ghost).hits, true
}

func (g *ghostList) len() int { return len(g.m) }
