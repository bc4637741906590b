// Package pagespace implements the Page Space Manager (PS): "the allocation
// and management of buffer space available for input data in terms of
// fixed-size pages. All interactions with data sources are done through the
// page space manager. The pages retrieved from a Data Source are cached in
// memory. The page space manager also keeps track of I/O requests received
// from multiple queries so that overlapping I/O requests are reordered and
// merged, and duplicate requests are eliminated" (paper §2).
//
// Duplicate elimination: a page being fetched has an in-flight entry with a
// completion gate; concurrent requesters wait on the gate instead of issuing
// a second disk read. Reordering/merging: queries read the page sets the
// index gives them in ascending order (see dataset.Pages), which the striped
// farm rewards with sequential positioning; the manager preserves that
// order. Caching: resident pages are kept under a byte budget with LRU
// replacement.
//
// Concurrency: one mutex guards the page table (open-addressed, keyed by
// dataset ordinal and page index; see pageTable), the LRU list, the free
// list, the resident totals and the event counters, so the LRU order is
// exact under concurrent operations too. The lock is never held across a
// farm read or a gate wait: a miss registers an in-flight entry, unlocks,
// reads, and locks again to publish. Eviction runs inside the publishing critical section and never
// drops the page just published.
//
// Allocation: the LRU list is intrusive (its links are pageEntry fields),
// and an evicted entry goes on the free list for the next miss, so once the
// budget is full a miss allocates nothing here. Only resident entries are
// ever recycled. Every *pageEntry held across an unlock is in flight:
// registered by the ReadPage, ReadPages or StartFetch* call that fetches it,
// and on no LRU list until published.
package pagespace

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/metrics"
	"mqsched/internal/rt"
	"mqsched/internal/trace"
)

// Stats are cumulative PS counters.
type Stats struct {
	Hits          int64 // request served from a resident page
	Misses        int64 // request that issued a disk read
	InflightWaits int64 // request coalesced onto an in-flight read
	Evictions     int64
	BytesRead     int64 // bytes fetched from the farm
	Prefetches    int64 // background fetches started by StartFetch
	// PrefetchDrops counts StartFetch hints discarded because the
	// background-fetch concurrency cap was reached.
	PrefetchDrops int64
}

// Options configure the manager.
type Options struct {
	// Budget is the buffer space in bytes (default DefaultBudget, the
	// paper's PS size).
	Budget int64
	// DisableDedup turns off in-flight duplicate elimination (ablation A2):
	// concurrent requests for the same absent page each go to disk.
	DisableDedup bool
	// Metrics is the registry the manager's counters and gauges are
	// published on (mqsched_pagespace_*); nil publishes nowhere.
	Metrics *metrics.Registry
}

// psMetrics are the manager's event counters, each event counted here once
// and named on the registry by useMetrics. The prefetch counters change
// outside mu and are atomics; the rest are plain integers written under mu,
// which the event holds anyway, and read under it by Stats and the
// registry.
type psMetrics struct {
	prefetches, prefetchDrops metrics.Counter

	hits, misses, dedupCoalesced int64
	evictions, readBytes         int64
}

// useMetrics publishes the counters, and the residency publish keeps, on
// reg (mqsched_pagespace_*).
func (m *Manager) useMetrics(reg *metrics.Registry) {
	locked := func(v *int64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(*v)
		}
	}
	reg.CounterFunc("mqsched_pagespace_hits_total",
		"Page requests served from a resident page.", locked(&m.mx.hits))
	reg.CounterFunc("mqsched_pagespace_misses_total",
		"Page requests that issued a disk read.", locked(&m.mx.misses))
	reg.CounterFunc("mqsched_pagespace_dedup_coalesced_total",
		"Duplicate in-flight page requests eliminated by coalescing onto an existing read.", locked(&m.mx.dedupCoalesced))
	reg.CounterFunc("mqsched_pagespace_evictions_total",
		"Resident pages dropped under the byte budget.", locked(&m.mx.evictions))
	reg.PublishCounter("mqsched_pagespace_prefetches_total",
		"Background fetches started by StartFetch.", &m.mx.prefetches)
	reg.PublishCounter("mqsched_pagespace_prefetch_drops_total",
		"StartFetch hints dropped at the background-fetch concurrency cap.", &m.mx.prefetchDrops)
	reg.CounterFunc("mqsched_pagespace_read_bytes_total",
		"Bytes fetched from the disk farm.", locked(&m.mx.readBytes))
	reg.GaugeFunc("mqsched_pagespace_resident_bytes",
		"Bytes currently resident.", func() float64 { return float64(m.Used()) })
	reg.GaugeFunc("mqsched_pagespace_resident_pages",
		"Pages currently resident.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.residentPages)
		})
}

// Manager is the page space manager.
type Manager struct {
	rtm  rt.Runtime
	farm *disk.Farm
	opts Options
	// layouts is the table's datasets in order: a layout's index is its
	// ordinal in the page keys. New builds it and nothing writes it after,
	// so it is read without mu.
	layouts []*dataset.Layout

	// prefetchLimit caps concurrently running background fetches started by
	// StartFetch*: hints beyond it are dropped, so a flood of prefetch hints
	// cannot swamp the farm ahead of foreground reads. New sets it to 2× the
	// farm's spindle count; a value ≤ 0 means unlimited. prefetching counts
	// the fetches running against it.
	prefetchLimit int
	prefetching   atomic.Int64

	newGate func(string) rt.Gate

	// mu guards everything below, and the counters of mx but the prefetch
	// ones. It is never held across a farm read or a gate wait.
	mu         sync.Mutex
	mx         psMetrics
	pages      pageTable
	head, tail *pageEntry // the LRU list of resident pages, head = most recent
	free       *pageEntry // evicted entries, linked through next
	// residentBytes is what publish holds against the budget, and
	// residentPages its page count. The registry shows them through
	// callback gauges.
	residentBytes, residentPages int64
}

// dsRef is one dataset's ordinal in the manager's table, shifted into the
// high half of a page key.
type dsRef uint64

// key is page's page-table key: the dataset ordinal above the page index.
func (d dsRef) key(page int) uint64 { return uint64(d) | uint64(uint32(page)) }

type pageEntry struct {
	key      uint64 // dsRef.key
	size     int64  // the page's bytes, set when the entry is published
	resident bool
	gate     rt.Gate // opens when the fetch completes; made by the first request to coalesce onto it
	data     []byte
	// prev and next are the more and the less recent neighbours on the LRU
	// list while resident; next links the free list once evicted.
	prev, next *pageEntry
}

// DefaultBudget is the byte budget of a page space whose Options.Budget is
// zero.
const DefaultBudget = 32 << 20

// New returns a manager over the farm for the given datasets.
func New(r rt.Runtime, table *dataset.Table, farm *disk.Farm, opts Options) *Manager {
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	m := &Manager{
		rtm:           r,
		farm:          farm,
		opts:          opts,
		prefetchLimit: 2 * farm.Disks(),
		newGate:       func(reason string) rt.Gate { return r.NewGate(reason) },
		pages:         newPageTable(),
	}
	for _, name := range table.Names() {
		m.layouts = append(m.layouts, table.Get(name))
	}
	m.useMetrics(opts.Metrics)
	return m
}

// ref returns l's ordinal, panicking on a layout the table lacks — a read
// of an unregistered dataset is a programming error upstream. A table holds
// a handful of datasets, so ref finds l by pointer in a scan, which costs
// less than hashing a name.
func (m *Manager) ref(l *dataset.Layout) dsRef {
	for i, t := range m.layouts {
		if t == l {
			return dsRef(i) << 32
		}
	}
	panic(fmt.Sprintf("pagespace: unknown dataset %q", l.Name))
}

// named returns the table's layout of the dataset named name.
func (m *Manager) named(name string) (*dataset.Layout, bool) {
	for _, l := range m.layouts {
		if l.Name == name {
			return l, true
		}
	}
	return nil, false
}

// register enters an in-flight entry for page of d in slot i of the page
// table, which find returned for its key, reusing an evicted entry when
// there is one. Callers hold mu.
func (m *Manager) register(d dsRef, page, i int) *pageEntry {
	e := m.free
	if e == nil {
		e = &pageEntry{}
	} else {
		m.free, e.next = e.next, nil
	}
	e.key = d.key(page)
	m.pages.insertAt(i, e)
	return e
}

// pushFront links e in as the most recent page. Callers hold mu.
func (m *Manager) pushFront(e *pageEntry) {
	e.prev, e.next = nil, m.head
	if m.head == nil {
		m.tail = e
	} else {
		m.head.prev = e
	}
	m.head = e
}

// unlink takes e off the LRU list. Callers hold mu.
func (m *Manager) unlink(e *pageEntry) {
	if e.prev == nil {
		m.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		m.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront makes resident e the most recent page. Callers hold mu.
func (m *Manager) moveToFront(e *pageEntry) {
	if e != m.head {
		m.unlink(e)
		m.pushFront(e)
	}
}

// evict drops resident e and keeps its entry for the next miss. Callers
// hold mu.
func (m *Manager) evict(e *pageEntry) {
	m.unlink(e)
	m.pages.delete(e.key)
	m.residentBytes -= e.size
	m.residentPages--
	m.mx.evictions++
	// Recycle the entry: it was resident, so no fetch holds it.
	*e = pageEntry{next: m.free}
	m.free = e
}

// Budget returns the configured byte budget.
func (m *Manager) Budget() int64 { return m.opts.Budget }

// Used returns the bytes currently resident.
func (m *Manager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.residentBytes
}

// Stats reads the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits:          m.mx.hits,
		Misses:        m.mx.misses,
		InflightWaits: m.mx.dedupCoalesced,
		Evictions:     m.mx.evictions,
		BytesRead:     m.mx.readBytes,
		Prefetches:    m.mx.prefetches.Value(),
		PrefetchDrops: m.mx.prefetchDrops.Value(),
	}
}

// ReadPage is Read of the dataset named ds. It implements query.PageReader.
func (m *Manager) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	l, ok := m.named(ds)
	if !ok {
		panic(fmt.Sprintf("pagespace: unknown dataset %q", ds))
	}
	return m.Read(ctx, l, page)
}

// Read returns the payload of one page of l (nil on the synthetic runtime),
// blocking the calling process for any disk time. It implements
// query.LayoutReader. The read is recorded as a span (subsystem "pagespace",
// op "read") under the span ctx carries, with the page, outcome (hit,
// coalesced, miss, miss-dup), and bytes; any disk read it issues nests a disk
// span under it.
func (m *Manager) Read(ctx rt.Ctx, l *dataset.Layout, page int) []byte {
	d := m.ref(l)
	var span trace.SpanContext
	if parent := rt.SpanOf(ctx); parent.Active() {
		span = parent.Child(trace.SubPagespace, trace.OpRead,
			trace.Str(trace.AttrDataset, l.Name), trace.I64(trace.AttrPage, int64(page)))
	}
	k := d.key(page)
	coalesced := false
	for {
		m.mu.Lock()
		e, slot := m.pages.find(k)
		switch {
		case e != nil && e.resident:
			m.mx.hits++
			m.moveToFront(e)
			data, size := e.data, e.size
			m.mu.Unlock()
			outcome := "hit"
			if coalesced {
				outcome = "coalesced"
			}
			finishRead(span, outcome, size)
			return data

		case e != nil && !m.opts.DisableDedup:
			// A fetch is in flight: coalesce onto it.
			m.mx.dedupCoalesced++
			coalesced = true
			if e.gate == nil {
				e.gate = m.newGate(fmt.Sprintf("page %s/%d", l.Name, page))
			}
			gate := e.gate
			m.mu.Unlock()
			gate.Wait(ctx)
			// The page is normally resident now, but may already have been
			// evicted under memory pressure; retry from the top.
			continue

		case e != nil:
			// Dedup disabled: issue a duplicate read without registering it.
			m.mx.misses++
			m.mu.Unlock()
			data, size := m.farm.Read(rt.WithSpan(ctx, span), l, page)
			m.mu.Lock()
			m.mx.readBytes += size
			m.mu.Unlock()
			finishRead(span, "miss-dup", size)
			return data

		default:
			e = m.register(d, page, slot)
			m.mx.misses++
			m.mu.Unlock()
			data, size := m.fetchAndPublish(rt.WithSpan(ctx, span), l, e)
			finishRead(span, "miss", size)
			return data
		}
	}
}

// finishRead ends a ReadPage span with its outcome and bytes, building the
// attributes only when the span records.
func finishRead(span trace.SpanContext, outcome string, bytes int64) {
	if span.Active() {
		span.Finish(trace.Str(trace.AttrOutcome, outcome), trace.I64(trace.AttrBytes, bytes))
	}
}

// ReadPages returns the payloads of a list of pages of one dataset, aligned
// with the input (nil elements on the synthetic runtime). Resident pages are
// served immediately; all absent pages are fetched from the farm in a single
// batched submission, so an elevator-scheduled farm sees the whole list at
// once and can reorder and merge it; requests already in flight are
// coalesced as usual. It implements query.BatchReader. The call is recorded
// as one span (subsystem "pagespace", op "readbatch") under the span ctx
// carries, with per-outcome counts; the batched disk read and any coalesced
// per-page waits nest under it.
func (m *Manager) ReadPages(ctx rt.Ctx, l *dataset.Layout, pages []int) [][]byte {
	if len(pages) == 0 {
		return nil
	}
	span := rt.SpanOf(ctx).Child(trace.SubPagespace, trace.OpReadBatch,
		trace.Str(trace.AttrDataset, l.Name), trace.I64(trace.AttrPages, int64(len(pages))))
	ctx = rt.WithSpan(ctx, span)
	d := m.ref(l)
	out := make([][]byte, len(pages))

	// Pass 1: classify every page under one hold of the lock, without blocking.
	// Absent pages are registered (owned by this call); in-flight pages are
	// deferred to pass 3, where the ordinary coalescing path waits for them.
	var owned []*pageEntry // entries registered and fetched by this call
	var ownedIdx []int     // input index of each owned entry (first occurrence)
	var dupIdx []int       // dedup-disabled duplicate reads, by input index
	var waiters []int      // input indices deferred to the coalescing path
	var hits, misses int64
	m.mu.Lock()
	for i, p := range pages {
		e, slot := m.pages.find(d.key(p))
		switch {
		case e != nil && e.resident:
			hits++
			m.moveToFront(e)
			out[i] = e.data

		case e != nil && !m.opts.DisableDedup:
			waiters = append(waiters, i)

		case e != nil:
			// Dedup disabled: duplicate read, paid but not cached.
			misses++
			dupIdx = append(dupIdx, i)

		default:
			e = m.register(d, p, slot)
			misses++
			owned = append(owned, e)
			ownedIdx = append(ownedIdx, i)
		}
	}
	m.mx.hits += hits
	m.mx.misses += misses
	m.mu.Unlock()

	// Pass 2: one batched farm read for everything this call must fetch —
	// owned pages first, dedup-disabled duplicates after.
	if len(owned)+len(dupIdx) > 0 {
		fetchPages := make([]int, 0, len(owned)+len(dupIdx))
		for _, i := range ownedIdx {
			fetchPages = append(fetchPages, pages[i])
		}
		for _, i := range dupIdx {
			fetchPages = append(fetchPages, pages[i])
		}
		datas := m.farm.ReadPages(ctx, l, fetchPages)
		for j, e := range owned {
			m.publish(e, datas[j], l.PageBytes(fetchPages[j]))
			out[ownedIdx[j]] = datas[j]
		}
		var dupBytes int64
		for j, i := range dupIdx {
			out[i] = datas[len(owned)+j]
			dupBytes += l.PageBytes(pages[i])
		}
		m.mu.Lock()
		m.mx.readBytes += dupBytes
		m.mu.Unlock()
	}

	// Pass 3: indices deferred onto in-flight fetches (including duplicate
	// occurrences within pages itself) go through the ordinary per-page path,
	// which waits on the owning fetch's gate and handles eviction races.
	for _, i := range waiters {
		out[i] = m.Read(ctx, l, pages[i])
	}
	span.Finish(trace.I64(trace.AttrHits, hits), trace.I64(trace.AttrMisses, misses),
		trace.I64(trace.AttrCoalesced, int64(len(waiters))))
	return out
}

// fetchAndPublish reads the page of in-flight entry e from the farm and
// makes it resident, returning its payload and size. The span ctx carries
// parents the disk span (inert for background prefetches, which run on their
// own process's ctx).
func (m *Manager) fetchAndPublish(ctx rt.Ctx, l *dataset.Layout, e *pageEntry) ([]byte, int64) {
	data, size := m.farm.Read(ctx, l, int(uint32(e.key)))
	m.publish(e, data, size)
	return data, size
}

// publish makes a fetched page of size bytes resident, charges it against
// the budget, evicts least-recently-used pages other than it until the
// budget holds (the requester is entitled to its page even if the budget is
// too small to hold a single page), and wakes coalesced waiters, if any.
// The gate is read under the lock that makes the page resident: no request
// coalesces after that, so no waiter can be left on a gate created later.
func (m *Manager) publish(e *pageEntry, data []byte, size int64) {
	m.mu.Lock()
	e.size = size
	e.resident = true
	e.data = data
	m.pushFront(e)
	m.residentBytes += size
	m.residentPages++
	m.mx.readBytes += size
	for m.residentBytes > m.opts.Budget && m.tail != e {
		m.evict(m.tail)
	}
	gate := e.gate
	e.gate = nil
	m.mu.Unlock()

	if gate != nil {
		gate.Open() // wake coalesced waiters (no park: open is non-blocking)
	}
}

// StartFetch begins fetching the page in the background if it is neither
// resident nor already in flight (query.Prefetcher). The fetch runs in its
// own process; later ReadPage calls coalesce onto it. Background fetches are
// capped at prefetchLimit — hints beyond the cap are dropped, since a
// prefetch is only a hint and must not starve foreground reads at the disks.
// With dedup disabled (ablation A2) prefetching is also disabled, as there is
// nothing for the foreground read to coalesce onto.
func (m *Manager) StartFetch(l *dataset.Layout, page int) {
	if m.opts.DisableDedup {
		return
	}
	if !m.takePrefetchSlot() {
		return
	}
	d := m.ref(l)
	m.mu.Lock()
	e, slot := m.pages.find(d.key(page))
	if e != nil {
		m.mu.Unlock()
		m.releasePrefetchSlot()
		return
	}
	e = m.register(d, page, slot)
	m.mx.prefetches.Inc()
	m.mu.Unlock()
	m.rtm.Spawn(fmt.Sprintf("prefetch-%s-%d", l.Name, page), func(ctx rt.Ctx) {
		m.fetchAndPublish(ctx, l, e)
		m.releasePrefetchSlot()
	})
}

// StartFetchBatch begins fetching a run of pages in the background
// (query.BatchPrefetcher). Pages already resident or in flight are skipped;
// the remainder are submitted to the farm as one batched read in a single
// background process, so an elevator-scheduled farm can merge them into
// multi-page transfers. The whole batch consumes one background-fetch slot
// against prefetchLimit; if no slot is free the entire hint is dropped
// (counted once in PrefetchDrops).
func (m *Manager) StartFetchBatch(l *dataset.Layout, pages []int) {
	if m.opts.DisableDedup || len(pages) == 0 {
		return
	}
	if !m.takePrefetchSlot() {
		return
	}
	d := m.ref(l)
	var fetch []*pageEntry
	var fetchPages []int
	m.mu.Lock()
	for _, p := range pages {
		e, slot := m.pages.find(d.key(p))
		if e != nil {
			continue
		}
		fetch = append(fetch, m.register(d, p, slot))
		fetchPages = append(fetchPages, p)
	}
	m.mu.Unlock()
	m.mx.prefetches.Add(int64(len(fetch)))
	if len(fetch) == 0 {
		m.releasePrefetchSlot()
		return
	}
	name := fmt.Sprintf("prefetch-%s-%d+%d", l.Name, fetchPages[0], len(fetchPages))
	m.rtm.Spawn(name, func(ctx rt.Ctx) {
		datas := m.farm.ReadPages(ctx, l, fetchPages)
		for i, e := range fetch {
			m.publish(e, datas[i], l.PageBytes(fetchPages[i]))
		}
		m.releasePrefetchSlot()
	})
}

// IOBatchPages reports the farm's preferred pages-per-batch for ReadPages
// calls (0 when batched submission brings no benefit, i.e. a FIFO farm). It
// implements query.BatchReader; query.ForEachPage reads in runs of this size,
// or page by page at 0, so the paper's one-page-at-a-time behaviour is
// preserved under FIFO scheduling.
func (m *Manager) IOBatchPages() int { return m.farm.IOBatchPages() }

// takePrefetchSlot reserves a background-fetch slot, or counts a drop and
// reports false when all prefetchLimit slots are taken. The slot is reserved
// before any page is registered: a registered-but-dropped entry would strand
// coalesced waiters on a gate that never opens.
func (m *Manager) takePrefetchSlot() bool {
	if limit := int64(m.prefetchLimit); limit > 0 && m.prefetching.Add(1) > limit {
		m.prefetching.Add(-1)
		m.mx.prefetchDrops.Inc()
		return false
	}
	return true
}

// releasePrefetchSlot returns a reserved background-fetch slot.
func (m *Manager) releasePrefetchSlot() {
	if m.prefetchLimit > 0 {
		m.prefetching.Add(-1)
	}
}

// Resident reports whether the page is currently cached (for tests).
func (m *Manager) Resident(ds string, page int) bool {
	l, ok := m.named(ds)
	if !ok {
		return false
	}
	d := m.ref(l)
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.pages.get(d.key(page))
	return e != nil && e.resident
}
