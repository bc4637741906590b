package datastore

import "fmt"

// Policy selects the manager's admission/eviction behaviour.
type Policy int

const (
	// PolicyLRU is the paper's behaviour: cache every result that fits and
	// evict by pure recency. It is the default and reproduces the pre-policy
	// manager's eviction order exactly (a differential test pins this).
	PolicyLRU Policy = iota
	// PolicyCost is the benefit-aware cache: eviction by GDSF-style priority
	// (observed hits × recompute cost / size, aged by an eviction clock),
	// and admission control against the entries a newcomer would displace.
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
