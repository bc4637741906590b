package server

import (
	"mqsched/internal/datastore"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/trace"
)

// DefaultBatchMaxGroup is the batch strategy's group-size cap when
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

// run executes one claimed group. A group of one — every claim outside the
// batch strategy — is the paper's dispatch: no seed, one execute. A larger
// group is the data-driven dispatch ("LifeRaft mode"): the hottest waiting
// query plus the waiting queries that share reuse edges with it, for which
// the parent aggregate is computed once — touching the shared pages a single
// time through the batched-read path — and fanned out to every member by exact
// projection before the members run their ordinary execution path.
//
// The leader executes first (it is the seed's beneficiary of record), then
// the remaining members fan out across up to ComputeParallelism goroutines —
// after the seed, each member is mostly a projection, and running them
// serially would leave the rest of the machine idle whenever hot load
// collapses into few groups.
//
// Deadlock avoidance holds in both shapes: members are dispatched in claim
// order (ascending ExecSeq) and a query can only stall on producers with a
// smaller ExecSeq. Within the group a smaller ExecSeq means the member was
// dispatched earlier — already started, so its gate eventually opens —
// and outside the group it means the producer was claimed earlier and is
// running on some other worker. The globally smallest executing ExecSeq is
// therefore always actively running and can never itself block.
func (s *Server) run(ctx rt.Ctx, group []*sched.Node, thread int) {
	// No-ops outside the batch strategy, where the histograms are nil.
	s.mx.batchGroupSize.Observe(float64(len(group)))
	if len(group) > 1 {
		s.mx.batchGroups.Inc()
	}
	now := s.rtm.Now()
	for _, n := range group {
		s.mx.batchQueueAge.Observe((now - n.Payload.(*task).res.Arrival).Seconds())
	}

	seed := s.seed(ctx, group)
	s.execute(ctx, group[0], thread, seed)
	if rest := group[1:]; len(rest) > 0 {
		workers := query.ResolveParallelism(s.opts.ComputeParallelism)
		query.FanOut(ctx, workers, len(rest), func(_, i int) { s.execute(ctx, rest[i], thread, seed) })
	}
}

// seed computes the group's shared parent aggregate, attributed to the group
// leader (group[0], the hottest query): a server/batch span under the
// leader's root, raw reads charged to the leader's result. It returns nil —
// and the group executes unamortized — when the group is trivial, the app
// cannot aggregate, or the blowup guards reject the parent.
func (s *Server) seed(ctx rt.Ctx, group []*sched.Node) *query.Blob {
	if s.agg == nil || len(group) < 2 {
		return nil
	}
	metas := make([]query.Meta, len(group))
	union := group[0].Meta.Region()
	var inSum, outSum int64
	for i, n := range group {
		metas[i] = n.Meta
		union = union.Union(n.Meta.Region())
		inSum += s.app.QInSize(n.Meta)
		outSum += s.app.QOutSize(n.Meta)
	}
	parent, ok := s.agg.ParentMeta(metas, union)
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
	// The store may already hold pieces of the parent's region; raw reads
	// cover only the remainder, batched through the page space. The seed is
	// no node, so it stalls on nobody.
	_, read := s.fill(ctx, parent, sp, out, geom.NewRegion(s.app.OutputGrid(parent)), nil)
	sp.Finish(trace.I64(trace.AttrInputBytes, read))
	// The seed's raw reads are the leader's work on every ledger (so a
	// leader served by the seed is still not a "full hit").
	leader.res.InputBytesRead += read
	// Offer the parent to the store so arrivals outside the group reuse it
	// too. The entry has no scheduling-graph node; eviction simply drops it.
	s.store(sp, out, datastore.InsertInfo{CostSeconds: (s.rtm.Now() - start).Seconds(), Materialized: true})
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
