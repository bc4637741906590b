package server

import (
	"sync"
	"sync/atomic"

	"mqsched/internal/datastore"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/trace"
)

// DefaultBatchMaxGroup is the batch executor's group-size cap when
// Options.BatchMaxGroup is unset.
const DefaultBatchMaxGroup = 16

// Batch seed guards: computing the group's parent aggregate must not dwarf
// the work it replaces. The input guard rejects parents whose raw footprint
// exceeds the members' combined footprint by more than 25% (the saving is
// reading shared pages once, so a parent that mostly reads *new* pages is a
// loss); the output guard rejects parents whose materialized size is out of
// proportion to the group (a degenerate aggregate).
const (
	batchInBlowup  = 1.25
	batchOutBlowup = 2.0
)

// Executor is the dispatch strategy behind the worker pool: Claim removes
// the next unit of work — a single query, or a data-affine batch group —
// from the scheduling graph, and Run executes a claimed unit on a worker
// thread. Claim is called with the server's queue lock held (mirroring the
// graph Dequeue call it generalizes) and returns nil when nothing is
// waiting; Run is called without the lock. Extracting this seam lets the
// per-query executor and the batch executor share the submit, trace, and
// metrics plumbing.
type Executor interface {
	Claim() []*sched.Node
	Run(ctx rt.Ctx, unit []*sched.Node, thread int)
}

// queryExecutor is the paper's dispatch loop: one query per claim.
type queryExecutor struct{ s *Server }

// Claim implements Executor.
func (e queryExecutor) Claim() []*sched.Node {
	if n := e.s.graph.Dequeue(); n != nil {
		return []*sched.Node{n}
	}
	return nil
}

// Run implements Executor.
func (e queryExecutor) Run(ctx rt.Ctx, unit []*sched.Node, thread int) {
	for _, n := range unit {
		e.s.execute(ctx, n, thread, nil)
	}
}

// batchExecutor is the data-driven dispatch loop ("LifeRaft mode"): each
// claim takes the hottest waiting query plus the waiting queries that share
// reuse edges with it (sched.Graph.DequeueBatch), computes the group's
// parent aggregate once — touching the shared pages a single time through
// the batched-read path — and fans the result out to every member by exact
// projection before the members run their ordinary execution path.
type batchExecutor struct {
	s *Server
	// agg derives a group's parent aggregate; nil when the application does
	// not implement query.Aggregator (groups then execute member-by-member,
	// which is always correct, merely unamortized).
	agg      query.Aggregator
	maxGroup int
}

// Claim implements Executor.
func (e *batchExecutor) Claim() []*sched.Node {
	group := e.s.graph.DequeueBatch(e.maxGroup)
	if group == nil {
		return nil
	}
	e.s.mx.batchGroupSize.Observe(float64(len(group)))
	if len(group) > 1 {
		e.s.mx.batchGroups.Inc()
	}
	now := e.s.rtm.Now()
	for _, n := range group {
		e.s.mx.batchQueueAge.Observe((now - n.Payload.(*task).res.Arrival).Seconds())
	}
	return group
}

// Run implements Executor. The leader executes first (it is the seed's
// beneficiary of record), then the remaining members fan out across up to
// ComputeParallelism goroutines on the real runtime — after the seed, each
// member is mostly a projection, and running them serially would leave the
// rest of the machine idle whenever hot load collapses into few groups. The
// simulated runtime keeps the serial walk so virtual-time experiments stay
// deterministic.
//
// Deadlock avoidance holds in both shapes: members are dispatched in claim
// order (ascending ExecSeq) and a query can only stall on producers with a
// smaller ExecSeq. Within the group a smaller ExecSeq means the member was
// dispatched earlier — already started, so its gate eventually opens —
// and outside the group it means the producer was claimed earlier and is
// running on some other worker. The globally smallest executing ExecSeq is
// therefore always actively running and can never itself block.
func (e *batchExecutor) Run(ctx rt.Ctx, group []*sched.Node, thread int) {
	seed := e.seed(ctx, group)
	e.s.execute(ctx, group[0], thread, seed)
	rest := group[1:]
	workers := query.ResolveParallelism(e.s.opts.ComputeParallelism)
	if workers > len(rest) {
		workers = len(rest)
	}
	if workers <= 1 || ctx.Synthetic() {
		for _, n := range rest {
			e.s.execute(ctx, n, thread, seed)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rest) {
					return
				}
				e.s.execute(ctx, rest[i], thread, seed)
			}
		}()
	}
	wg.Wait()
}

// seed computes the group's shared parent aggregate, attributed to the group
// leader (group[0], the hottest query): a server/batch span under the
// leader's root, raw reads charged to the leader's result. It returns nil —
// and the group executes unamortized — when the group is trivial, the app
// cannot aggregate, or the blowup guards reject the parent.
func (e *batchExecutor) seed(ctx rt.Ctx, group []*sched.Node) *query.Blob {
	if e.agg == nil || len(group) < 2 {
		return nil
	}
	s := e.s
	metas := make([]query.Meta, len(group))
	union := group[0].Meta.Region()
	var inSum, outSum int64
	for i, n := range group {
		metas[i] = n.Meta
		union = union.Union(n.Meta.Region())
		inSum += s.app.QInSize(n.Meta)
		outSum += s.app.QOutSize(n.Meta)
	}
	parent, ok := e.agg.ParentMeta(metas, union)
	if !ok {
		return nil
	}
	pin, pout := s.app.QInSize(parent), s.app.QOutSize(parent)
	if float64(pin) > batchInBlowup*float64(inSum) {
		return nil
	}
	if float64(pout) > batchOutBlowup*float64(outSum+pin) {
		return nil
	}

	leader := group[0].Payload.(*task)
	start := s.rtm.Now()
	sp := leader.span.Child(trace.SubServer, trace.OpBatch,
		trace.I64(trace.AttrGroupSize, int64(len(group))),
		trace.Str(trace.AttrQuery, parent.String()))
	out := s.app.NewBlob(ctx, parent)
	remaining := geom.NewRegion(s.app.OutputGrid(parent))
	// The store may already hold pieces of the parent's region; raw reads
	// cover only the remainder, batched through the page space.
	s.projectFromStore(ctx, parent, sp, out, remaining)
	var read int64
	if !remaining.Empty() {
		read = s.computeRaw(ctx, sp, parent, out, remaining)
	}
	sp.Finish(trace.I64(trace.AttrInputBytes, read))
	// The seed's raw reads are the leader's work on every ledger (so a
	// leader served by the seed is still not a "full hit").
	leader.res.InputBytesRead += read
	// Offer the parent to the store so arrivals outside the group reuse it
	// too. The entry has no scheduling-graph node; eviction simply drops it.
	if s.ds != nil {
		cost := (s.rtm.Now() - start).Seconds()
		store := sp.Child(trace.SubDatastore, trace.OpStore, trace.I64(trace.AttrBytes, out.Size))
		entry := s.ds.InsertWith(out, datastore.InsertInfo{CostSeconds: cost, Materialized: true})
		store.Finish(trace.Bool(trace.AttrCached, entry != nil), trace.Bool(trace.AttrAdmitted, entry != nil))
	}
	return out
}

// projectSeed fans a batch group's freshly computed parent aggregate into
// one member's output under a server/fanout span, returning the output area
// covered. The seed blob lives outside the data store, so there is no entry
// to pin or charge; reuse accounting otherwise mirrors a store projection.
func (s *Server) projectSeed(ctx rt.Ctx, n *sched.Node, sp trace.SpanContext, seed *query.Blob, out *query.Blob, remaining *geom.Region) int64 {
	coverable := s.app.Coverable(seed.Meta, n.Meta)
	if remaining.IntersectArea(coverable) == 0 {
		return 0
	}
	fan := sp.Child(trace.SubServer, trace.OpFanout)
	covered := s.app.Project(ctx, seed, n.Meta, out)
	gained := remaining.IntersectArea(covered)
	remaining.Subtract(covered)
	if gained > 0 {
		s.mx.projections.Inc()
		s.mx.batchFanout.Inc()
	}
	fan.Finish(trace.I64(trace.AttrAreaGained, gained))
	return gained
}
