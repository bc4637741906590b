// Package server implements the multithreaded query server engine: a
// fixed-size pool of query threads that dequeue from the scheduling graph,
// answer queries from cached intermediate results where possible (projecting
// via the application's transformation function), optionally block on
// overlapping results still being computed, and compute the uncovered
// remainder from raw data through the page space manager (paper §2, §4).
//
// A query executes as follows:
//
//  1. Look up the data store for complete or partial blobs; project each
//     useful candidate into the output and subtract the covered region.
//  2. If part of the output is still uncovered and an overlapping query is
//     EXECUTING, optionally block until it finishes and retry the lookup —
//     this avoids duplicate I/O at the price of a stall (the behaviour the
//     FF and CNBF ranking strategies reason about). Deadlock avoidance:
//     only block on producers that started executing earlier.
//  3. Compute the remaining sub-regions (the "sub-queries") from raw chunks.
//  4. Store the output image in the data store as an intermediate result and
//     move the node to CACHED (or remove it if it cannot be stored).
//
// Steps 1-3 are fill, step 4 is finish. Every strategy runs them the same way:
// a worker claims through Graph.DequeueBatch — one query at a time, or a
// data-affine group under sched.Batch (batch.go) — and all work spread over
// goroutines within a query goes through query.FanOut.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mqsched/internal/datastore"
	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/trace"
)

// Options configure the server.
type Options struct {
	// Threads is the query-thread pool size ("typically the number of
	// processors available in the SMP"). Default 4.
	Threads int
	// BlockOnExecuting enables step 2 (waiting on overlapping EXECUTING
	// queries). Default true; ablation A3 turns it off.
	BlockOnExecuting bool
	// ComputeParallelism bounds the worker goroutines one query may fan its
	// raw-chunk computation across on the real runtime (intra-query
	// parallelism): 1 keeps the paper's serial per-query loop, 0 selects a
	// GOMAXPROCS-derived default, n > 1 caps the fan-out at n. The bound is
	// handed to the application via query.ParallelComputer (apps that don't
	// implement it stay serial) and also gates concurrent projection of
	// disjoint data-store candidates. The simulated runtime always executes
	// serially regardless.
	ComputeParallelism int
	// MaterializeLimit caps concurrent proactive-materialization queries
	// (parent aggregates the data store's cost policy hints; hints beyond
	// the cap are dropped and re-trigger later). 0 selects the default of 2;
	// negative disables hint consumption. Irrelevant under the default LRU
	// policy, which emits no hints.
	MaterializeLimit int
	// BatchMaxGroup caps the queries one dispatch claims together under the
	// sched.Batch strategy (every other strategy claims one query at a
	// time). 0 selects DefaultBatchMaxGroup.
	BatchMaxGroup int
	// Spans, when non-nil, records the per-query span tree (server exec
	// phases, sched wait, data store lookups, page space reads, disk I/O).
	// A nil tracer costs one nil check per span site and allocates nothing.
	Spans *trace.Tracer
	// Metrics is the registry the server's counters and per-strategy latency
	// histograms are published on (mqsched_server_*, labelled with the
	// active ranking strategy); nil publishes nowhere, Stats reads the same.
	Metrics *metrics.Registry
}

// srvMetrics are the server's counters, each event counted here once: Stats
// reads them and publish names them on the registry (mqsched_server_*,
// labelled with the active ranking strategy). The counters and the gauge are
// plain atomics, so the execute/finish hot paths never take a server-wide
// lock.
type srvMetrics struct {
	submitted, completed, canceled metrics.Counter
	fullHits, projections, blocks  metrics.Counter
	rawBytes                       metrics.Counter
	reusedBytes, computedBytes     metrics.Counter
	materializations               metrics.Counter
	response, wait                 *metrics.Histogram
	computeWorkers                 metrics.Gauge

	// Batch-dispatch counters; their series exist only while the batch
	// strategy is active (the histograms are nil, and no-ops, otherwise).
	// batchGroups has no series: it is the group-size histogram's count above
	// its first bucket.
	batchGroups, batchFanout      metrics.Counter
	batchGroupSize, batchQueueAge *metrics.Histogram
}

// publish builds the histograms and registers every series on reg.
func (m *srvMetrics) publish(reg *metrics.Registry, strategy string, batch bool) {
	l := metrics.L("strategy", strategy)
	m.response = metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	m.wait = metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	reg.PublishCounter("mqsched_server_submitted_total",
		"Queries accepted into the scheduling graph.", &m.submitted, l)
	reg.PublishCounter("mqsched_server_completed_total",
		"Queries completed (throughput).", &m.completed, l)
	reg.PublishCounter("mqsched_server_canceled_total",
		"Queries abandoned while still WAITING.", &m.canceled, l)
	reg.PublishCounter("mqsched_server_full_hits_total",
		"Queries answered entirely from the data store.", &m.fullHits, l)
	reg.PublishCounter("mqsched_server_projections_total",
		"Cached results projected into outputs.", &m.projections, l)
	reg.PublishCounter("mqsched_server_blocks_total",
		"Stalls on overlapping EXECUTING producers.", &m.blocks, l)
	reg.PublishCounter("mqsched_server_raw_bytes_total",
		"Input bytes requested from the page space manager.", &m.rawBytes, l)
	reg.PublishCounter("mqsched_server_reused_output_bytes_total",
		"Output bytes produced by projecting cached results.", &m.reusedBytes, l)
	reg.PublishCounter("mqsched_server_computed_output_bytes_total",
		"Output bytes produced from raw data.", &m.computedBytes, l)
	reg.PublishCounter("mqsched_server_materializations_total",
		"Proactive-materialization queries submitted on data store hints.", &m.materializations, l)
	reg.PublishHistogram("mqsched_server_response_seconds",
		"End-to-end query latency (waiting plus execution).", m.response, l)
	reg.PublishHistogram("mqsched_server_wait_seconds",
		"Time spent queued before execution began.", m.wait, l)
	reg.PublishGauge("mqsched_server_compute_workers",
		"Resolved per-query compute worker bound (intra-query parallelism).", &m.computeWorkers, l)
	if batch {
		m.batchGroupSize = metrics.NewHistogram([]float64{1, 2, 4, 8, 16, 32})
		m.batchQueueAge = metrics.NewHistogram(metrics.DefaultLatencyBuckets)
		reg.PublishHistogram("mqsched_batch_group_size",
			"Queries claimed together per batch dispatch.", m.batchGroupSize, l)
		reg.PublishCounter("mqsched_batch_fanout_total",
			"Group members covered by projecting the batch seed aggregate.", &m.batchFanout, l)
		reg.PublishHistogram("mqsched_batch_queue_age_seconds",
			"Queue age (arrival to claim) of queries at batch dispatch.", m.batchQueueAge, l)
	}
}

const (
	// minReuseOverlap filters data store candidates: results with a smaller
	// overlap index are not projected.
	minReuseOverlap = 0.01
	// minBlockOverlap is the minimum overlap index with an EXECUTING
	// producer that justifies stalling on it.
	minBlockOverlap = 0.1
)

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 4
	}
	if o.MaterializeLimit == 0 {
		o.MaterializeLimit = 2
	}
	if o.BatchMaxGroup <= 0 {
		o.BatchMaxGroup = DefaultBatchMaxGroup
	}
	return o
}

// Stats are cumulative server counters.
type Stats struct {
	Submitted int64
	Completed int64
	// FullHits counts queries answered entirely from the data store (no raw
	// I/O and no blocking).
	FullHits int64
	// Projections counts cached results projected into outputs.
	Projections int64
	// Blocks counts stalls on EXECUTING producers.
	Blocks int64
	// Canceled counts queries abandoned while still WAITING.
	Canceled int64
	// RawBytes counts input bytes requested from the page space manager.
	RawBytes int64
	// ReusedOutputBytes counts output bytes produced by projection.
	ReusedOutputBytes int64
	// ComputedOutputBytes counts output bytes produced from raw data.
	ComputedOutputBytes int64
	// Materializations counts proactive-materialization queries submitted on
	// data store hints (cost policy only).
	Materializations int64
	// BatchGroups counts multi-query groups claimed under the batch strategy;
	// BatchFanouts counts group members whose outputs were (partially)
	// covered by projecting the group's seed aggregate. Zero under every
	// non-batch strategy.
	BatchGroups  int64
	BatchFanouts int64
}

// Server is the query server engine.
type Server struct {
	rtm   rt.Runtime
	app   query.App
	graph *sched.Graph
	ds    *datastore.Manager // nil = caching disabled
	ps    *pagespace.Manager
	opts  Options

	// maxGroup is what a worker asks the graph for per claim: 1 (the paper's
	// query-at-a-time dispatch) for every strategy but sched.Batch, which
	// claims data-affine groups of up to Options.BatchMaxGroup.
	maxGroup int
	// agg derives a group's parent aggregate; nil when the application does
	// not implement query.Aggregator (groups then execute member-by-member,
	// which is always correct, merely unamortized).
	agg query.Aggregator

	mx srvMetrics

	// mu guards only the worker wait-queue handshake (closed + cond); the
	// counters are atomic and the scheduling graph has its own lock.
	mu     sync.Mutex
	cond   rt.Cond
	closed bool

	// matInFlight counts outstanding proactive-materialization queries
	// (bounded by Options.MaterializeLimit).
	matInFlight atomic.Int64
}

// task links a scheduling-graph node to its in-progress result; it rides in
// Node.Payload.
type task struct {
	res *query.Result
	// span is the query's root span (inert when span tracing is off).
	span trace.SpanContext
	// materialized marks a proactive-materialization query submitted on a
	// data store hint rather than by a client.
	materialized bool
	// blockTime accumulates stalls on EXECUTING producers; the recompute
	// cost reported to the data store excludes it.
	blockTime time.Duration
}

// Ticket is the client handle for a submitted query.
type Ticket struct {
	node *sched.Node
	res  *query.Result
}

// Wait blocks the calling process until the query completes and returns its
// result.
func (t *Ticket) Wait(ctx rt.Ctx) *query.Result {
	t.node.Done.Wait(ctx)
	return t.res
}

// Done reports whether the query has completed.
func (t *Ticket) Done() bool { return t.node.Done.Opened() }

// New builds a server and starts its query-thread pool. ds may be nil to
// disable intermediate-result caching entirely (the paper's "caching off"
// baseline).
func New(rtm rt.Runtime, app query.App, graph *sched.Graph, ds *datastore.Manager, ps *pagespace.Manager, opts Options) *Server {
	s := &Server{
		rtm:      rtm,
		app:      app,
		graph:    graph,
		ds:       ds,
		ps:       ps,
		opts:     opts.withDefaults(),
		maxGroup: 1,
	}
	_, batching := graph.Policy().(sched.Batch)
	s.mx.publish(s.opts.Metrics, graph.Policy().Name(), batching)
	if batching {
		s.maxGroup = s.opts.BatchMaxGroup
		s.agg, _ = app.(query.Aggregator)
	}
	// Hand the intra-query parallelism bound to the application before any
	// query thread starts (the setting must not change once queries execute).
	if pc, ok := app.(query.ParallelComputer); ok {
		pc.SetComputeParallelism(s.opts.ComputeParallelism)
	}
	s.mx.computeWorkers.Set(int64(query.ResolveParallelism(s.opts.ComputeParallelism)))
	s.cond = rtm.NewCond(&s.mu, "server work queue")
	if ds != nil {
		ds.OnEvict = s.onEvict
	}
	for i := 0; i < s.opts.Threads; i++ {
		thread := i
		s.rtm.Spawn(fmt.Sprintf("query-thread-%d", i), func(ctx rt.Ctx) {
			s.worker(ctx, thread)
		})
	}
	return s
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: closed")

// Submit enqueues a query and returns its ticket. It may be called from any
// process (or from plain goroutines on the real runtime).
func (s *Server) Submit(m query.Meta) (*Ticket, error) { return s.submit(m, false) }

func (s *Server) submit(m query.Meta, materialized bool) (*Ticket, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.mu.Unlock()
	s.mx.submitted.Inc()

	// Two-phase insertion: the node must be fully constructed (Payload,
	// WaitSpan) before Enqueue publishes it, because a worker may dequeue it
	// the instant it enters the waiting heap.
	n := s.graph.Prepare(m)
	res := &query.Result{Meta: m, Arrival: s.rtm.Now()}
	t := &task{res: res, materialized: materialized}
	t.span = s.opts.Spans.StartRoot(n.ID, trace.SubServer, trace.OpQuery,
		trace.Str(trace.AttrStrategy, s.graph.Policy().Name()), trace.Str(trace.AttrQuery, m.String()))
	if materialized {
		t.span.Annotate(trace.Bool(trace.AttrMaterialized, true))
	}
	// The sched wait span is finished by the graph when the query is
	// dequeued (or by Cancel); it measures time spent in the priority queue.
	n.WaitSpan = t.span.Child(trace.SubSched, trace.OpWait)
	n.Payload = t
	s.graph.Enqueue(n)

	s.mu.Lock()
	s.cond.Signal()
	s.mu.Unlock()
	return &Ticket{node: n, res: res}, nil
}

// Cancel abandons a query that has not started executing: its node leaves
// the scheduling graph and its ticket completes immediately with
// Result.Canceled set. It reports false — and changes nothing — once the
// query is executing or done; the result then arrives normally. Use it when
// a client disconnects with queries still queued.
func (s *Server) Cancel(t *Ticket) bool {
	if !s.graph.CancelWaiting(t.node) {
		return false
	}
	now := s.rtm.Now()
	t.res.Canceled = true
	t.res.ExecStart = now
	t.res.Completed = now
	t.node.WaitSpan.Finish(trace.Str(trace.AttrOutcome, "canceled"))
	t.node.Payload.(*task).span.Finish(trace.Str(trace.AttrOutcome, "canceled"))
	s.mx.canceled.Inc()
	t.node.Done.Open()
	return true
}

// Close stops the worker pool once the waiting queue drains. Queries already
// submitted still complete.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Stats reads the counters.
func (s *Server) Stats() Stats {
	m := &s.mx
	return Stats{
		Submitted:           m.submitted.Value(),
		Completed:           m.completed.Value(),
		FullHits:            m.fullHits.Value(),
		Projections:         m.projections.Value(),
		Blocks:              m.blocks.Value(),
		Canceled:            m.canceled.Value(),
		RawBytes:            m.rawBytes.Value(),
		ReusedOutputBytes:   m.reusedBytes.Value(),
		ComputedOutputBytes: m.computedBytes.Value(),
		Materializations:    m.materializations.Value(),
		BatchGroups:         m.batchGroups.Value(),
		BatchFanouts:        m.batchFanout.Value(),
	}
}

// worker is one query thread; thread is its pool index, attributed to every
// root span it executes (per-thread utilization in trace analysis). This is
// the one place queries leave the graph: one DequeueBatch per dispatch, of one
// query or of one data-affine group.
func (s *Server) worker(ctx rt.Ctx, thread int) {
	for {
		s.mu.Lock()
		var group []*sched.Node
		for {
			group = s.graph.DequeueBatch(s.maxGroup)
			if group != nil {
				break
			}
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait(ctx)
		}
		s.mu.Unlock()
		s.run(ctx, group, thread)
	}
}

// execute runs one query to completion. seed, when non-nil, is a freshly
// computed batch-group parent aggregate fanned out to this query before the
// data store is consulted (batch strategy only; nil everywhere else).
func (s *Server) execute(ctx rt.Ctx, n *sched.Node, thread int, seed *query.Blob) {
	t := n.Payload.(*task)
	res := t.res
	res.ExecStart = s.rtm.Now()
	t.span.Annotate(trace.I64(trace.AttrThread, int64(thread)))

	out := s.app.NewBlob(ctx, n.Meta)
	grid := s.app.OutputGrid(n.Meta)
	remaining := geom.NewRegion(grid)
	var reusedArea int64

	// Step 0 (batch mode only): fan the group's parent aggregate out into
	// this output first — it was computed moments ago for exactly this data.
	if seed != nil {
		reusedArea += s.projectSeed(ctx, n, t.span, seed, out, remaining)
	}
	reused, read := s.fill(ctx, n.Meta, t.span, out, remaining, n)
	reusedArea += reused
	res.InputBytesRead += read

	res.Blob = out
	gridArea := grid.Area()
	if gridArea > 0 {
		res.ReusedFrac = float64(reusedArea) / float64(gridArea)
	}

	// Step 4: store the result for reuse and settle the node state.
	s.finish(n, t, out, res, reusedArea, gridArea)

	// Consume proactive-materialization hints the data store may have
	// emitted (cost policy): submit each parent aggregate as an ordinary
	// query, bounded by MaterializeLimit. Materialization queries themselves
	// do not chain further materializations.
	if t.materialized {
		s.matInFlight.Add(-1)
	} else {
		s.materializeHints()
	}
}

// materializeHints drains the data store's pending parent-aggregate hints
// and submits them, dropping hints beyond the in-flight cap (the hot region
// re-triggers after another probe round).
func (s *Server) materializeHints() {
	if s.ds == nil || s.opts.MaterializeLimit < 0 {
		return
	}
	limit := int64(s.opts.MaterializeLimit)
	for _, m := range s.ds.TakeHints() {
		if s.matInFlight.Add(1) > limit {
			s.matInFlight.Add(-1)
			continue
		}
		if _, err := s.submit(m, true); err != nil {
			s.matInFlight.Add(-1)
			continue
		}
		s.mx.materializations.Inc()
	}
}

// fill is the loop every output is produced by, a query's and a batch seed's
// alike. It returns the output area covered by projection and the input bytes
// read. blocker is the executing node step 2 may stall as; nil (the seed has
// no node) skips that step.
func (s *Server) fill(ctx rt.Ctx, m query.Meta, sp trace.SpanContext, out *query.Blob, remaining *geom.Region, blocker *sched.Node) (reused, read int64) {
	var waited []*sched.Node // producers already stalled on; nothing is allocated before the first stall
	for !remaining.Empty() {
		// Step 1: project everything useful from the data store.
		reused += s.projectFromStore(ctx, m, sp, out, remaining)
		if remaining.Empty() {
			break
		}
		// Step 2: optionally stall on an overlapping EXECUTING producer.
		if blocker != nil {
			if p := s.blockOnProducer(ctx, blocker, remaining, waited); p != nil {
				waited = append(waited, p)
				continue // producer finished; retry the lookup
			}
		}
		// Step 3: compute the rest from raw data (the sub-queries).
		read = s.computeRaw(ctx, sp, m, out, remaining)
		break
	}
	return reused, read
}

// computeRaw computes what remains of m's output from raw data, one
// ComputeRaw call per rectangle of the coalesced remainder, under a
// server/compute span below sp. The application gets a ctx derived under that
// span, so the page-space and disk spans of its reads attribute to the query;
// with tracing off the derived ctx is ctx itself. It returns the input bytes
// this step read, which is also what the span reports.
func (s *Server) computeRaw(ctx rt.Ctx, sp trace.SpanContext, m query.Meta, out *query.Blob, remaining *geom.Region) int64 {
	remaining.Coalesce()
	compute := sp.Child(trace.SubServer, trace.OpCompute,
		trace.I64(trace.AttrSubqueries, int64(len(remaining.Rects()))))
	ctx = rt.WithSpan(ctx, compute)
	var read int64
	for _, sub := range remaining.Rects() {
		read += s.app.ComputeRaw(ctx, m, sub, out, s.ps)
	}
	compute.Finish(trace.I64(trace.AttrInputBytes, read))
	return read
}

// projectFromStore projects data-store candidates into out, returning the
// output area newly covered. There is one walk. Its select/skip decisions
// depend only on region algebra — Project's covered rect equals Coverable's,
// so the remaining region is updated without touching pixels — and only the
// moment of the pixel work differs: with one compute worker, or on the
// simulated runtime, each selected candidate is projected on the spot (the
// paper's loop); otherwise selected candidates accumulate into a batch as
// long as their covered rects are mutually disjoint and the batch is projected
// concurrently. When the next candidate overlaps the batch (a later
// projection would overwrite earlier pixels, and order matters to the bytes)
// the batch is flushed first, so across batches the walk's order is kept and
// the final bytes are the same either way.
func (s *Server) projectFromStore(ctx rt.Ctx, m query.Meta, sp trace.SpanContext, out *query.Blob, remaining *geom.Region) int64 {
	if s.ds == nil {
		return 0
	}
	cands := s.ds.LookupTraced(sp, m, minReuseOverlap)
	if len(cands) == 0 {
		return 0
	}
	project := sp.Child(trace.SubServer, trace.OpProject, trace.I64(trace.AttrCandidates, int64(len(cands))))
	workers := query.ResolveParallelism(s.opts.ComputeParallelism)
	inline := workers <= 1 || ctx.Synthetic()
	var gained, projections int64
	var batch []projection
	for _, c := range cands {
		coverable := s.app.Coverable(c.Entry.Blob.Meta, m)
		newArea := remaining.IntersectArea(coverable)
		if newArea == 0 {
			c.Entry.Unpin() // skipped candidates are unpinned unused
			continue
		}
		remaining.Subtract(coverable)
		gained += newArea
		projections++
		s.mx.projections.Inc()
		p := projection{entry: c.Entry, covered: coverable}
		if inline {
			s.project(ctx, p, m, out)
			continue
		}
		for _, q := range batch {
			if !q.covered.Intersect(coverable).Empty() {
				s.projectBatch(ctx, batch, m, out, workers)
				batch = batch[:0]
				break
			}
		}
		batch = append(batch, p)
	}
	s.projectBatch(ctx, batch, m, out, workers)
	project.Finish(trace.I64(trace.AttrProjections, projections), trace.I64(trace.AttrAreaGained, gained))
	return gained
}

// projection is a candidate the walk selected: the pinned entry and the rect
// of the output grid its projection writes.
type projection struct {
	entry   *datastore.Entry
	covered geom.Rect
}

// project does one selected candidate's pixel work and releases it. Reuse is
// charged here, to candidates actually projected, never to skipped ones.
func (s *Server) project(ctx rt.Ctx, p projection, m query.Meta, out *query.Blob) {
	s.app.Project(ctx, p.entry.Blob, m, out)
	p.entry.MarkProjected()
	p.entry.Unpin()
}

// projectBatch projects candidates that write disjoint output regions.
func (s *Server) projectBatch(ctx rt.Ctx, batch []projection, m query.Meta, out *query.Blob, workers int) {
	if len(batch) == 0 {
		return
	}
	query.FanOut(ctx, workers, len(batch), func(_, i int) { s.project(ctx, batch[i], m, out) })
}

// blockOnProducer stalls on the best eligible EXECUTING producer not in
// waited. It returns the producer it waited for (the caller should retry the
// data store lookup), or nil.
func (s *Server) blockOnProducer(ctx rt.Ctx, n *sched.Node, remaining *geom.Region, waited []*sched.Node) *sched.Node {
	if !s.opts.BlockOnExecuting || s.ds == nil {
		return nil
	}
	t := n.Payload.(*task)
	// BlockableProducers applies the deadlock-avoidance rule (only block on
	// queries whose execution started earlier) under the graph's lock, where
	// ExecSeq is written.
	for _, p := range s.graph.BlockableProducers(n) {
		if slices.Contains(waited, p) {
			continue
		}
		if s.app.Overlap(p.Meta, n.Meta) < minBlockOverlap {
			continue
		}
		if remaining.IntersectArea(s.app.Coverable(p.Meta, n.Meta)) == 0 {
			continue
		}
		t.res.WaitedOnExecuting++
		s.mx.blocks.Inc()
		blockStart := s.rtm.Now()
		block := t.span.Child(trace.SubServer, trace.OpBlock, trace.I64(trace.AttrProducer, p.ID))
		p.Done.Wait(ctx)
		block.Finish()
		now := s.rtm.Now()
		t.blockTime += now - blockStart
		return p
	}
	return nil
}

// finish publishes the result and settles the scheduling-graph node.
func (s *Server) finish(n *sched.Node, t *task, out *query.Blob, res *query.Result, reusedArea, gridArea int64) {
	// The value model's recompute-cost estimate: this query's execution time
	// so far on the runtime's clock, excluding producer stalls (waiting is
	// not work the cache would save).
	cost := (s.rtm.Now() - res.ExecStart - t.blockTime).Seconds()
	cached := s.store(t.span, out, datastore.InsertInfo{CostSeconds: cost, Materialized: t.materialized, Owner: n})
	if !cached {
		s.graph.Remove(n)
	}

	res.Completed = s.rtm.Now()
	t.span.Finish(
		trace.F64(trace.AttrReusedFrac, res.ReusedFrac),
		trace.I64(trace.AttrInputBytes, res.InputBytesRead),
		trace.I64(trace.AttrBlocks, int64(res.WaitedOnExecuting)),
		trace.Bool(trace.AttrCached, cached))
	s.graph.Observe(res.ResponseTime()) // feedback for self-tuning policies

	s.mx.completed.Inc()
	if reusedArea == gridArea && res.WaitedOnExecuting == 0 && res.InputBytesRead == 0 {
		s.mx.fullHits.Inc()
	}
	s.mx.rawBytes.Add(res.InputBytesRead)
	// Split out.Size proportionally by reused area. Integer bytes-per-pixel
	// would silently drop the fractional remainder (reused + computed would
	// undercount out.Size); splitting the quotient and remainder separately
	// keeps the arithmetic exact and overflow-safe, and computed is derived
	// by subtraction so the two always sum to out.Size.
	var reusedBytes int64
	if gridArea > 0 {
		reusedBytes = out.Size/gridArea*reusedArea + out.Size%gridArea*reusedArea/gridArea
	}
	computedBytes := out.Size - reusedBytes
	s.mx.reusedBytes.Add(reusedBytes)
	s.mx.computedBytes.Add(computedBytes)
	s.mx.response.Observe(res.ResponseTime().Seconds())
	s.mx.wait.Observe(res.WaitTime().Seconds())

	n.Done.Open()
}

// store offers out to the data store under a datastore/store span below sp
// and reports whether it is cached. info.Owner is the node the result belongs
// to (nil for a batch seed, which has none): an admitted owner moves to
// CACHED, unless a concurrent insert's eviction sweep reclaimed the entry
// first — onEvict has then already taken the node out of the graph.
func (s *Server) store(sp trace.SpanContext, out *query.Blob, info datastore.InsertInfo) bool {
	if s.ds == nil {
		return false
	}
	span := sp.Child(trace.SubDatastore, trace.OpStore, trace.I64(trace.AttrBytes, out.Size))
	entry := s.ds.InsertWith(out, info)
	cached := entry != nil
	if n, ok := info.Owner.(*sched.Node); ok && cached {
		s.graph.MarkCached(n)
		cached = !entry.Evicted()
	}
	span.Finish(trace.Bool(trace.AttrCached, cached), trace.Bool(trace.AttrAdmitted, entry != nil))
	return cached
}

// onEvict is the data store hook: a reclaimed result moves its node to
// SWAPPED OUT and removes it from the scheduling graph. The entry carries its
// node from the insert, under the manager's lock, so there is no window in
// which an evicted entry's node is unknown.
func (s *Server) onEvict(e *datastore.Entry) {
	if n, ok := e.Owner.(*sched.Node); ok {
		s.graph.Remove(n)
	}
}
