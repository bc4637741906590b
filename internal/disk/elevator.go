package disk

import (
	"fmt"
	"sort"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/rt"
	"mqsched/internal/trace"
)

// ioReq is one queued page request on a spindle. The requester parks on
// gate; the dispatcher fills the result fields before opening it.
type ioReq struct {
	l         *dataset.Layout
	page      int
	requester string
	span      trace.SpanContext
	gate      rt.Gate
	arrival   int64 // per-disk arrival position
	deadline  int64 // dispatch round by which the request must be served

	data    []byte
	seq     bool  // paid (or rode behind) a sequential positioning
	streams int   // interleaved-stream estimate at dispatch
	batch   int   // distinct pages in the serving transfer
	reorder int64 // |dispatch position − arrival position|
}

// diskQueue is one spindle's pending-request queue under SchedElevator. A
// dispatcher process exists only while the queue is non-empty (dispatching):
// the simulated runtime treats an idle parked process as a deadlock, so the
// dispatcher exits when it drains the queue and enqueue respawns it on
// demand.
type diskQueue struct {
	pending     []*ioReq
	dispatching bool
	arrivals    int64 // arrival position counter
	served      int64 // dispatch position counter
	rounds      int64 // dispatches issued
	headDS      string
	headPage    int
	headSet     bool
}

// enqueue creates a request per page, appends them to their spindles'
// queues, and starts a dispatcher on every spindle that lacks one. It
// returns the requests aligned with pages; the caller collects them with
// await. Queue state is guarded by f.mu.
func (f *Farm) enqueue(ctx rt.Ctx, l *dataset.Layout, pages []int) []*ioReq {
	sp := rt.SpanOf(ctx)
	reqs := make([]*ioReq, len(pages))
	groups := make([][]*ioReq, f.cfg.Disks)
	for i, p := range pages {
		d := f.DiskFor(l.Name, p)
		reqs[i] = &ioReq{
			l:         l,
			page:      p,
			requester: ctx.Name(),
			gate:      f.rtm.NewGate(fmt.Sprintf("disk%d read %s/%d", d, l.Name, p)),
		}
		groups[d] = append(groups[d], reqs[i])
	}
	f.mu.Lock()
	for d, g := range groups {
		if len(g) == 0 {
			continue
		}
		q := &f.queues[d]
		depth := int64(len(q.pending))
		for _, r := range g {
			q.arrivals++
			r.arrival = q.arrivals
			r.deadline = q.rounds + int64(f.cfg.MaxDelay)
			r.span = sp.Child(trace.SubDisk, trace.OpRead,
				trace.I64(trace.AttrSpindle, int64(d)), trace.I64(trace.AttrQDepth, depth))
			depth++
		}
		q.pending = append(q.pending, g...)
		f.mx.queueLength[d].Add(int64(len(g)))
		if !q.dispatching {
			q.dispatching = true
			disk := d
			f.rtm.Spawn(fmt.Sprintf("disk%d-dispatch", disk), func(dctx rt.Ctx) {
				f.dispatch(dctx, disk)
			})
		}
	}
	f.mu.Unlock()
	return reqs
}

// await blocks until every request is served and returns the payloads
// aligned with the enqueue order, finishing each request's span with the
// dispatch outcome.
func (f *Farm) await(ctx rt.Ctx, reqs []*ioReq) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		r.gate.Wait(ctx)
		out[i] = r.data
		r.span.Finish(
			trace.I64(trace.AttrBytes, r.l.PageBytes(r.page)),
			trace.Bool(trace.AttrSequential, r.seq),
			trace.I64(trace.AttrStreams, int64(r.streams)),
			trace.I64(trace.AttrBatch, int64(r.batch)),
			trace.I64(trace.AttrReorder, r.reorder))
	}
	return out
}

// dispatch drains the spindle's queue, one batch per iteration, and exits
// when the queue is empty.
func (f *Farm) dispatch(ctx rt.Ctx, d int) {
	q := &f.queues[d]
	for {
		f.mu.Lock()
		if len(q.pending) == 0 {
			q.dispatching = false
			f.mu.Unlock()
			return
		}
		batch, service := f.pickBatchLocked(q, d)
		f.mu.Unlock()

		f.stations[d].Serve(ctx, service)

		for _, r := range batch {
			if f.gen != nil && !ctx.Synthetic() {
				r.data = f.gen(r.l, r.page)
			}
			f.mx.queueLength[d].Dec()
			r.gate.Open()
		}
	}
}

// pickBatchLocked selects and prices the next transfer. Pending requests are
// viewed in elevator order — sorted by (dataset, page) — and the batch
// leader is the first request at or past the head position, wrapping to the
// lowest when the sweep reaches the end. The batch extends through requests
// on the same dataset whose page gap stays within SeqWindow, up to
// MaxBatchPages distinct pages; duplicate page requests join for free and
// the page is transferred once. If any request has been bypassed for more
// than MaxDelay dispatches, the oldest such request becomes the leader
// instead (the starvation bound). The whole transfer is billed one
// positioning cost — sequential iff the leader continues the spindle's last
// dispatched position — plus the combined transfer time of its distinct
// pages. Selected requests are removed from the queue. Caller holds f.mu.
func (f *Farm) pickBatchLocked(q *diskQueue, d int) ([]*ioReq, time.Duration) {
	q.rounds++

	sort.Slice(q.pending, func(i, j int) bool {
		a, b := q.pending[i], q.pending[j]
		if a.l.Name != b.l.Name {
			return a.l.Name < b.l.Name
		}
		if a.page != b.page {
			return a.page < b.page
		}
		return a.arrival < b.arrival
	})

	start := -1
	if f.cfg.MaxDelay >= 0 {
		// Starvation override: the oldest over-deadline request leads.
		var oldest int64
		for i, r := range q.pending {
			if q.rounds > r.deadline && (start < 0 || r.arrival < oldest) {
				start, oldest = i, r.arrival
			}
		}
	}
	if start < 0 {
		// Elevator sweep: first request at or past the head position.
		start = 0
		if q.headSet {
			start = sort.Search(len(q.pending), func(i int) bool {
				r := q.pending[i]
				if r.l.Name != q.headDS {
					return r.l.Name > q.headDS
				}
				return r.page >= q.headPage
			})
			if start == len(q.pending) {
				start = 0
			}
		}
	}

	leader := q.pending[start]
	batch := []*ioReq{leader}
	distinct := 1
	var bytes int64 = leader.l.PageBytes(leader.page)
	end := start + 1
	for ; end < len(q.pending); end++ {
		r := q.pending[end]
		if r.l.Name != leader.l.Name {
			break
		}
		prev := q.pending[end-1]
		if r.page != prev.page {
			if r.page-prev.page > f.cfg.SeqWindow || distinct == f.cfg.MaxBatchPages {
				break
			}
			distinct++
			bytes += r.l.PageBytes(r.page)
		}
		batch = append(batch, r)
	}
	tail := q.pending[end-1]
	q.headDS, q.headPage, q.headSet = tail.l.Name, tail.page, true
	q.pending = append(q.pending[:start], q.pending[end:]...)

	// Price the transfer: one positioning for the leader against the
	// spindle's last dispatched page, stream diversity over every rider.
	seq, streams := f.priceLocked(d, leader.l.Name, leader.page, leader.requester)
	for _, r := range batch[1:] {
		streams = f.noteRequesterLocked(d, r.requester)
	}
	f.last[d][leader.l.Name] = tail.page
	service := f.ServiceTime(bytes, seq, streams)

	var maxReorder int64
	for i, r := range batch {
		q.served++
		r.reorder = q.served - r.arrival
		if r.reorder < 0 {
			r.reorder = -r.reorder
		}
		if r.reorder > maxReorder {
			maxReorder = r.reorder
		}
		r.streams = streams
		r.batch = distinct
		r.seq = seq || i > 0 // riders inherit the batch's positioning
	}

	if seq {
		f.mx.seqReads.Inc()
	}
	f.mx.seqReads.Add(int64(len(batch) - 1))
	f.mx.reads[d].Add(int64(distinct))
	f.mx.readBytes.Add(bytes)
	f.mx.busyNanos[d].Add(int64(service))
	f.mx.mergedReads.Add(int64(len(batch) - 1))
	f.mx.batchPages.Observe(float64(distinct))
	f.mx.reorderDist.Set(maxReorder)
	if maxReorder > f.mx.maxReorder.Value() {
		f.mx.maxReorder.Set(maxReorder)
	}

	return batch, service
}
