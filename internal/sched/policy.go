package sched

import (
	"cmp"
	"fmt"
	"strings"

	"mqsched/internal/query"
)

// Policy is a ranking strategy: given a WAITING node (with its neighbour
// list and neighbour states visible), return its rank. Higher ranks execute
// first. Rank is called with the graph's lock held.
type Policy interface {
	Name() string
	Rank(n *Node) float64
}

// FIFO serves queries in arrival order: rank = −arrival sequence. "FIFO
// targets fairness" (§4).
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Rank implements Policy.
func (FIFO) Rank(n *Node) float64 { return -float64(n.Seq) }

// MUF — Most Useful First — ranks a node by how much the other WAITING
// queries depend on it: r_i = Σ w(i,k) over edges i→k with s_k = WAITING.
// "It quantifies how many queries are going to benefit if we run query q_i
// next."
type MUF struct{}

// Name implements Policy.
func (MUF) Name() string { return "MUF" }

// Rank implements Policy.
func (MUF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.nbrs {
		if e.node.state == Waiting {
			r += e.out
		}
	}
	return r
}

// FF — Farthest First — ranks a node by how likely it is to block on a
// dependency: r_i = −Σ w(k,i) over edges k→i with s_k ∈ {WAITING,
// EXECUTING}. Nodes with more pending dependencies get smaller ranks, so
// queries far from their producers run first.
type FF struct{}

// Name implements Policy.
func (FF) Name() string { return "FF" }

// Rank implements Policy.
func (FF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.nbrs {
		if e.node.state == Waiting || e.node.state == Executing {
			r -= e.in
		}
	}
	return r
}

// CF — Closest First — favours queries whose producers are already CACHED
// (or, discounted by Alpha, still EXECUTING):
// r_i = Σ_{cached k} w(k,i) + α · Σ_{executing k} w(k,i), 0 < α < 1.
// "Scheduling queries that are close has the potential to improve locality,
// making caching more beneficial."
type CF struct {
	// Alpha weights dependencies on results still being computed. The
	// paper's experiments fix α = 0.2.
	Alpha float64
}

// Name implements Policy.
func (c CF) Name() string { return fmt.Sprintf("CF(α=%.2g)", c.Alpha) }

// Rank implements Policy.
func (c CF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.nbrs {
		switch e.node.state {
		case Cached:
			r += e.in
		case Executing:
			r += c.Alpha * e.in
		}
	}
	return r
}

// CNBF — Closest and Non-Blocking First — like CF but *penalizes*
// dependencies on EXECUTING producers, to avoid interlock: r_i =
// Σ_{cached k} w(k,i) − Σ_{executing k} w(k,i).
type CNBF struct{}

// Name implements Policy.
func (CNBF) Name() string { return "CNBF" }

// Rank implements Policy.
func (CNBF) Rank(n *Node) float64 {
	var r float64
	for _, e := range n.nbrs {
		switch e.node.state {
		case Cached:
			r += e.in
		case Executing:
			r -= e.in
		}
	}
	return r
}

// SJF — Shortest Job First — ranks by estimated execution time, using
// qinputsize (the bytes of the chunks intersecting the query window) as the
// estimate: r_i = −qinputsize(M_i), read once when the node is prepared.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "SJF" }

// Rank implements Policy.
func (SJF) Rank(n *Node) float64 { return -float64(n.qin) }

// Params are the tunables a named strategy takes. The zero value selects
// every default, which is what ByName builds with.
type Params struct {
	// CFAlpha is cf's weight on EXECUTING producers (0 = the paper's 0.2).
	CFAlpha float64
	// Probe feeds ra live CPU/disk utilization (nil = no load penalty, which
	// ranks like cnbf).
	Probe LoadProbe
}

// policies is the one place a strategy name and its parameters become a
// Policy: the paper's six in its order, the data-driven batch extension, then
// the future-work strategies (§6), which build everywhere but are not
// advertised by Names.
var policies = []struct {
	name      string
	extension bool
	build     func(app query.App, p Params) Policy
}{
	{"fifo", false, func(query.App, Params) Policy { return FIFO{} }},
	{"muf", false, func(query.App, Params) Policy { return MUF{} }},
	{"ff", false, func(query.App, Params) Policy { return FF{} }},
	{"cf", false, func(_ query.App, p Params) Policy { return CF{Alpha: cmp.Or(p.CFAlpha, 0.2)} }},
	{"cnbf", false, func(query.App, Params) Policy { return CNBF{} }},
	{"sjf", false, func(query.App, Params) Policy { return SJF{} }},
	{"batch", false, func(app query.App, _ Params) Policy {
		return Batch{App: app, Starvation: DefaultBatchStarvation}
	}},
	{"combined", true, func(query.App, Params) Policy { return Combined{Beta: CombinedBeta} }},
	{"ra", true, func(app query.App, p Params) Policy {
		cpu, _ := app.(CPUCostEstimator)
		return ResourceAware{App: app, CPU: cpu, Probe: p.Probe}
	}},
}

// Names returns the canonical lower-case names of the advertised ranking
// strategies, in a fixed order. The set labels the mqsched_build_info metric
// and trace-collection headers.
func Names() []string {
	var names []string
	for _, p := range policies {
		if !p.extension {
			names = append(names, p.name)
		}
	}
	return names
}

// Build returns the strategy called name (any case) with the given
// parameters. An unknown name's error lists the names that build.
func Build(name string, app query.App, params Params) (Policy, error) {
	var known []string
	for _, p := range policies {
		if strings.EqualFold(name, p.name) {
			return p.build(app, params), nil
		}
		known = append(known, p.name)
	}
	return nil, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(known, ", "))
}

// ByName is Build with every parameter at its default: cf uses the paper's
// α = 0.2. It reports false for unknown names.
func ByName(name string, app query.App) (Policy, bool) {
	p, err := Build(name, app, Params{})
	return p, err == nil
}
