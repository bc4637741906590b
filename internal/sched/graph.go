// Package sched implements the paper's dynamic query scheduling model (§4):
// a priority queue implemented as a directed graph G(V, E). Each vertex is a
// query that is waiting, executing, or recently computed with cached
// results; a directed edge e(i,j) means q_j's result can be computed from
// q_i's result through the application's project transformation, with weight
// w(i,j) = overlap(M_i, M_j) · qoutsize(M_i) — a measure of the number of
// bytes that can be reused. Each node carries a 2-tuple <rank, state>; a
// dequeue returns the WAITING node of highest rank under the configured
// ranking strategy.
//
// Rank maintenance is incremental: inserting a node, changing a node's
// state, or removing a node only re-ranks the node itself and its graph
// neighbours, mirroring the paper's incremental topological-sort
// implementation.
package sched

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"mqsched/internal/metrics"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/spatial"
	"mqsched/internal/trace"
)

// State is the lifecycle state of a query node.
type State uint8

const (
	// Waiting queries are queued for execution.
	Waiting State = iota
	// Executing queries occupy a query thread.
	Executing
	// Cached queries have finished and their results live in the data store.
	Cached
	// SwappedOut queries' results were reclaimed; the node is removed from
	// the graph.
	SwappedOut
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Waiting:
		return "WAITING"
	case Executing:
		return "EXECUTING"
	case Cached:
		return "CACHED"
	case SwappedOut:
		return "SWAPPED_OUT"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Node is a vertex of the query scheduling graph.
type Node struct {
	ID   int64
	Meta query.Meta

	// Seq is the arrival order (FIFO rank and tie-breaking).
	Seq int64
	// ExecSeq is the order in which execution started (0 until scheduled);
	// the server's deadlock-avoidance rule only lets a query block on
	// producers with a smaller ExecSeq.
	ExecSeq int64

	// Done opens when the query finishes executing (its result is available
	// in the data store, or the query completed uncached). Dependent queries
	// and the submitting client wait on it.
	Done rt.Gate

	// Payload is for the embedding server's use (e.g. the data store entry
	// backing a CACHED node). It must be assigned between Prepare and
	// Enqueue: once the node is published, a worker may dequeue and read it
	// at any moment.
	Payload any

	// WaitSpan, when active, measures the node's time in the waiting queue;
	// the graph finishes it at Dequeue with the winning rank and the queue
	// depth it was selected from. The submitter sets it (as a child of the
	// query's root span) between Prepare and Enqueue; the zero value is
	// inert.
	WaitSpan trace.SpanContext

	state State
	rank  float64
	// qin is qinputsize(Meta), read once at Prepare.
	qin int64
	// nbrs holds one entry per neighbour, in ascending neighbour Seq, so
	// every rank sums its terms in one fixed order.
	nbrs []edge

	heapIdx int // index in the waiting heap, -1 if not enqueued
}

// edge is a neighbour k of a node i with both weights between them:
// out = w(i, k), the bytes of i's result reusable for k, and in = w(k, i).
// At least one of them is non-zero.
type edge struct {
	node    *Node
	out, in float64
}

// find returns the position of the entry for the neighbour with sequence seq
// in a Seq-ordered list, or where it would go, and whether it is there.
func find(nbrs []edge, seq int64) (int, bool) {
	return slices.BinarySearchFunc(nbrs, seq, func(e edge, s int64) int { return cmp.Compare(e.node.Seq, s) })
}

// State returns the node's current state. Callers outside the graph's lock
// should treat it as advisory.
func (n *Node) State() State { return n.state }

// Rank returns the node's current rank.
func (n *Node) Rank() float64 { return n.rank }

// Graph is the scheduling graph plus the waiting-queue priority heap.
// All methods are safe for concurrent use.
type Graph struct {
	mu      sync.Mutex
	app     query.App
	policy  Policy
	newGate func(reason any) rt.Gate

	nodes   map[int64]*Node
	trees   map[string]*spatial.Tree[*Node] // overlap-candidate index
	hits    []*Node                         // Enqueue's index search results
	waiting waitHeap
	nextID  int64
	nextExc int64

	mx graphMetrics
}

// graphMetrics are the graph's counters, each event counted here once:
// Stats reads them and UseMetrics names them on a registry. The transition
// counters are GraphStats' Inserted, Dequeued and Removed. All are written
// under Graph.mu.
type graphMetrics struct {
	queueDepth, nodes                              metrics.Gauge
	reRanks, edgePairs                             metrics.Counter
	toWaiting, toExecuting, toCached, toSwappedOut metrics.Counter
}

// UseMetrics publishes the graph's gauges and counters (mqsched_sched_*) on
// reg.
func (g *Graph) UseMetrics(reg *metrics.Registry) {
	const transitions = "Query node state transitions by destination state."
	state := func(c *metrics.Counter, name string) {
		reg.PublishCounter("mqsched_sched_transitions_total", transitions, c, metrics.L("state", name))
	}
	reg.PublishGauge("mqsched_sched_queue_depth",
		"WAITING queries in the scheduling graph's priority queue.", &g.mx.queueDepth)
	reg.PublishGauge("mqsched_sched_nodes",
		"Nodes in the scheduling graph (all states except SWAPPED OUT).", &g.mx.nodes)
	reg.PublishCounter("mqsched_sched_reranks_total",
		"Rank recomputations (the cost of incremental rank maintenance).", &g.mx.reRanks)
	reg.PublishCounter("mqsched_sched_edges_total",
		"Reuse edges ever created between query nodes.", &g.mx.edgePairs)
	state(&g.mx.toWaiting, "waiting")
	state(&g.mx.toExecuting, "executing")
	state(&g.mx.toCached, "cached")
	state(&g.mx.toSwappedOut, "swapped_out")
}

// GraphStats are cumulative counters.
type GraphStats struct {
	Inserted  int64
	Dequeued  int64
	Removed   int64
	EdgePairs int64 // number of neighbour relations ever created
	ReRanks   int64 // rank recomputations (measure of incremental cost)
}

// New returns an empty graph using the given ranking strategy. The runtime
// provides completion gates for nodes.
func New(r rt.Runtime, app query.App, policy Policy) *Graph {
	return &Graph{
		app:     app,
		policy:  policy,
		newGate: r.NewGate,
		nodes:   map[int64]*Node{},
		trees:   map[string]*spatial.Tree[*Node]{},
	}
}

// Policy returns the active ranking strategy.
func (g *Graph) Policy() Policy { return g.policy }

// Insert adds a new query in the WAITING state: it creates the node, adds
// edges to and from every node with non-zero overlap, computes the new
// node's rank and refreshes the ranks of its neighbours (paper §4, steps
// (1)-(3) for a new query). It is Prepare followed immediately by Enqueue;
// callers that must attach per-node data (Payload, WaitSpan) before the node
// can be dequeued use the two-phase form.
func (g *Graph) Insert(m query.Meta) *Node {
	n := g.Prepare(m)
	g.Enqueue(n)
	return n
}

// Prepare allocates a node for a new query without publishing it: the node
// has its ID, arrival sequence, and completion gate, but is invisible to
// Dequeue (and to edge discovery by other inserts) until Enqueue. The caller
// may set Payload and WaitSpan on the returned node; once Enqueue publishes
// it, any worker can dequeue it concurrently, so those fields must not be
// written afterwards.
func (g *Graph) Prepare(m query.Meta) *Node {
	qin := g.app.QInSize(m)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	n := &Node{
		ID:      g.nextID,
		Meta:    m,
		Seq:     g.nextID,
		state:   Waiting,
		qin:     qin,
		heapIdx: -1,
	}
	n.Done = g.newGate((*doneReason)(n))
	return n
}

// doneReason names a node's completion gate in deadlock diagnostics. It is
// formatted only when one is reported, so naming a gate allocates nothing.
type doneReason Node

func (d *doneReason) String() string { return fmt.Sprintf("query %d done", d.ID) }

// Enqueue publishes a prepared node into the WAITING queue: it adds edges to
// and from every node with non-zero overlap, pushes the node on the priority
// heap, computes its rank and refreshes the ranks of its neighbours. After
// Enqueue returns the node is owned by the graph and may already be
// EXECUTING on another thread.
func (g *Graph) Enqueue(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.nodes[n.ID]; dup || n.heapIdx != -1 {
		panic(fmt.Sprintf("sched: Enqueue of already-published node %d", n.ID))
	}
	g.nodes[n.ID] = n

	// Neighbour discovery via the spatial index: overlap requires region
	// intersection on the same dataset. Neighbours are linked in Seq order.
	tree := g.treeFor(n.Meta.Dataset())
	hits := tree.Search(n.Meta.Region(), g.hits[:0])
	slices.SortFunc(hits, func(a, b *Node) int { return cmp.Compare(a.Seq, b.Seq) })
	var pairs int64 // one atomic add per insert, not one per pair
	if len(hits) > 0 {
		// Room for the hits and half as many later arrivals: growing from
		// empty allocates every power of two on the way, and an exact fit
		// reallocates at the first later neighbour's Insert.
		n.nbrs = make([]edge, 0, len(hits)+len(hits)/2+2)
	}
	for _, c := range hits {
		in := g.app.Overlap(c.Meta, n.Meta) * float64(g.app.QOutSize(c.Meta))
		out := g.app.Overlap(n.Meta, c.Meta) * float64(g.app.QOutSize(n.Meta))
		if in <= 0 && out <= 0 {
			continue
		}
		if in > 0 {
			pairs++
		}
		if out > 0 {
			pairs++
		}
		n.nbrs = append(n.nbrs, edge{c, out, in})
		// n is usually c's latest neighbour, but a node prepared before a
		// later arrival may be published after it.
		i, _ := find(c.nbrs, n.Seq)
		c.nbrs = slices.Insert(c.nbrs, i, edge{n, in, out})
	}
	clear(hits) // the buffer keeps no node alive
	g.hits = hits[:0]
	g.mx.edgePairs.Add(pairs)
	tree.Insert(n.Meta.Region(), n)

	heap.Push(&g.waiting, n)
	g.mx.toWaiting.Inc()
	g.updateGaugesLocked()
	g.refreshLocked(n)
	g.refreshNeighboursLocked(n)
}

// Dequeue removes and returns the WAITING node with the highest rank,
// marking it EXECUTING, or nil if no query is waiting: the first (and only)
// element of DequeueBatch(1).
func (g *Graph) Dequeue() *Node {
	if group := g.DequeueBatch(1); group != nil {
		return group[0]
	}
	return nil
}

// DequeueBatch is the one claim: it removes the highest-ranked WAITING node
// (the group seed) plus up to max−1 WAITING neighbours that share a reuse
// edge with it, marking all of them EXECUTING in one critical section and
// refreshing their neighbours' ranks, or returns nil if no query is waiting.
// max = 1 is the paper's query-at-a-time dequeue. Neighbours join in
// decreasing order of symmetric edge weight (w(seed,k)+w(k,seed), ties by
// arrival), so the group is deterministic and data-affine: every member
// provably reads overlapping data.
//
// ExecSeqs are assigned in claim order, seed first. Deadlock safety is
// preserved: wait-for edges still only point from larger to smaller ExecSeq
// (BlockableProducers), and a claimed-but-not-yet-running member's implicit
// predecessor — the earlier group member on the same worker — always has a
// smaller ExecSeq, so the wait-for graph stays acyclic.
func (g *Graph) DequeueBatch(max int) []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting.Len() == 0 {
		return nil
	}
	seed := heap.Pop(&g.waiting).(*Node)
	group := []*Node{seed}
	if max > 1 {
		var cands []edge
		for _, e := range seed.nbrs {
			if e.node.state == Waiting {
				cands = append(cands, e)
			}
		}
		// The list is in Seq order, so a stable sort breaks ties by arrival.
		slices.SortStableFunc(cands, func(a, b edge) int { return cmp.Compare(b.out+b.in, a.out+a.in) })
		for _, e := range cands[:min(len(cands), max-1)] {
			heap.Remove(&g.waiting, e.node.heapIdx)
			group = append(group, e.node)
		}
	}
	depth := int64(g.waiting.Len())
	for _, n := range group {
		n.state = Executing
		g.nextExc++
		n.ExecSeq = g.nextExc
		n.WaitSpan.Finish(trace.F64(trace.AttrRank, n.rank),
			trace.I64(trace.AttrQueueDepth, depth))
		g.mx.toExecuting.Inc()
	}
	g.updateGaugesLocked()
	for _, n := range group {
		g.refreshNeighboursLocked(n)
	}
	return group
}

// MarkCached transitions an EXECUTING node to CACHED: its results are now
// available in the data store for reuse. A node that has already been
// swapped out (its entry evicted before the transition landed) is left
// alone.
func (g *Graph) MarkCached(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state == SwappedOut {
		return
	}
	if n.state != Executing {
		panic(fmt.Sprintf("sched: MarkCached of %v node %d", n.state, n.ID))
	}
	n.state = Cached
	g.mx.toCached.Inc()
	g.refreshNeighboursLocked(n)
}

// Remove takes a node out of the graph: a CACHED node whose results were
// reclaimed (it becomes SWAPPED OUT), or an EXECUTING node that completed
// without caching its result. All its edges are removed and the ranks of its
// former neighbours recomputed, so "the up-to-date state of the system is
// reflected to the query server" (§4).
func (g *Graph) Remove(n *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state == SwappedOut {
		return
	}
	if n.state == Waiting {
		panic(fmt.Sprintf("sched: Remove of WAITING node %d", n.ID))
	}
	g.detachLocked(n)
}

// CancelWaiting removes a node that is still WAITING (the client abandoned
// the query before a thread picked it up): it leaves the priority queue and
// the graph, and its former neighbours are re-ranked. It reports false —
// and does nothing — if the node is no longer waiting; the query will
// complete normally.
func (g *Graph) CancelWaiting(n *Node) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state != Waiting {
		return false
	}
	heap.Remove(&g.waiting, n.heapIdx)
	g.detachLocked(n)
	return true
}

// detachLocked moves n, already off the waiting heap, to SWAPPED OUT: it drops
// n's edges, its index entry and its place in the node table, then re-ranks
// the former neighbours.
func (g *Graph) detachLocked(n *Node) {
	former := n.nbrs
	for _, e := range former {
		i, _ := find(e.node.nbrs, n.Seq)
		e.node.nbrs = slices.Delete(e.node.nbrs, i, i+1)
	}
	n.nbrs = nil
	n.state = SwappedOut
	g.treeFor(n.Meta.Dataset()).Delete(n.Meta.Region(), n)
	delete(g.nodes, n.ID)
	g.mx.toSwappedOut.Inc()
	g.updateGaugesLocked()
	for _, e := range former {
		g.refreshLocked(e.node)
	}
}

// BlockableProducers returns the EXECUTING nodes whose results overlap n
// (edges k→n) and that a running consumer may safely stall on, ordered by
// decreasing weight w(k, n), ties by arrival. The server consults it to
// decide whether to block on a result "that is still being computed". Only
// producers whose execution started earlier (smaller ExecSeq) qualify, which
// keeps the wait-for graph acyclic (the server's deadlock-avoidance rule).
// ExecSeq is written under the graph's lock at Dequeue, so the eligibility
// test must run here rather than in the caller. n must itself be EXECUTING.
func (g *Graph) BlockableProducers(n *Node) []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.state != Executing {
		panic(fmt.Sprintf("sched: BlockableProducers of %v node %d", n.state, n.ID))
	}
	var ps []edge
	for _, e := range n.nbrs {
		if e.in > 0 && e.node.state == Executing && e.node.ExecSeq < n.ExecSeq {
			ps = append(ps, e)
		}
	}
	slices.SortStableFunc(ps, func(a, b edge) int { return cmp.Compare(b.in, a.in) })
	var out []*Node
	for _, e := range ps {
		out = append(out, e.node)
	}
	return out
}

// WaitingCount returns the number of WAITING queries.
func (g *Graph) WaitingCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting.Len()
}

// Len returns the number of nodes in the graph (all states except
// SWAPPED OUT).
func (g *Graph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}

// Stats reads the counters.
func (g *Graph) Stats() GraphStats {
	return GraphStats{
		Inserted:  g.mx.toWaiting.Value(),
		Dequeued:  g.mx.toExecuting.Value(),
		Removed:   g.mx.toSwappedOut.Value(),
		EdgePairs: g.mx.edgePairs.Value(),
		ReRanks:   g.mx.reRanks.Value(),
	}
}

// refreshLocked recomputes the rank of n if it is WAITING and repositions it
// in the heap.
func (g *Graph) refreshLocked(n *Node) {
	if n.state != Waiting || n.heapIdx < 0 {
		return
	}
	n.rank = g.policy.Rank(n)
	heap.Fix(&g.waiting, n.heapIdx)
	g.mx.reRanks.Inc()
}

// updateGaugesLocked refreshes the queue-depth and node-count gauges after a
// structural change.
func (g *Graph) updateGaugesLocked() {
	g.mx.queueDepth.Set(int64(g.waiting.Len()))
	g.mx.nodes.Set(int64(len(g.nodes)))
}

// refreshNeighboursLocked recomputes the ranks of every neighbour of n.
func (g *Graph) refreshNeighboursLocked(n *Node) {
	for _, e := range n.nbrs {
		g.refreshLocked(e.node)
	}
}

func (g *Graph) treeFor(ds string) *spatial.Tree[*Node] {
	t, ok := g.trees[ds]
	if !ok {
		t = spatial.NewTree[*Node]()
		g.trees[ds] = t
	}
	return t
}

// waitHeap orders WAITING nodes by descending rank, breaking ties FIFO by
// arrival sequence.
type waitHeap []*Node

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank > h[j].rank
	}
	return h[i].Seq < h[j].Seq
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *waitHeap) Push(x any) {
	n := x.(*Node)
	n.heapIdx = len(*h)
	*h = append(*h, n)
}
func (h *waitHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	n.heapIdx = -1
	*h = old[:len(old)-1]
	return n
}
