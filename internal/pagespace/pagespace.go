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
// a second disk read. Reordering/merging: queries obtain their page lists
// from the index in ascending order (see dataset.PagesInRect), which the
// striped farm rewards with sequential positioning; the manager preserves
// that order. Caching: resident pages are kept under a byte budget with LRU
// replacement.
//
// Concurrency: the manager is lock-striped. Pages hash onto a fixed set of
// shards, each with its own mutex, page table, and LRU list, so concurrent
// queries touching disjoint pages never serialize on a manager-wide lock
// (the paper's query threads scale with the processor count; a single cache
// mutex would cap that). The byte budget is global: residency is accounted
// in one atomic, and eviction picks the globally least-recently-used page by
// comparing the per-shard LRU tails under a monotonic touch clock — exact
// LRU order when operations are sequential, approximate (and safe) under
// concurrent touches. Shard locks are never nested and never held across a
// blocking call.
package pagespace

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math"
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
	// Budget is the buffer space in bytes (default 32 MB, the paper's PS
	// size).
	Budget int64
	// PrefetchLimit caps concurrently running background fetches started by
	// StartFetch; hints beyond the cap are dropped, so a flood of prefetch
	// hints cannot swamp the disk farm ahead of foreground reads. 0 means
	// the default of 2× the farm's spindle count; negative means unlimited.
	PrefetchLimit int
	// DisableDedup turns off in-flight duplicate elimination (ablation A2):
	// concurrent requests for the same absent page each go to disk.
	DisableDedup bool
	// Metrics is the registry the manager's counters and gauges are
	// published on (mqsched_pagespace_*); nil publishes nowhere.
	Metrics *metrics.Registry
}

// psMetrics are the manager's event counters, each event counted here once
// (atomics: the read path must not share a lock across shards). Stats reads
// them and useMetrics names them on the registry.
type psMetrics struct {
	hits, misses          metrics.Counter
	dedupCoalesced        metrics.Counter
	evictions, prefetches metrics.Counter
	prefetchDrops         metrics.Counter
	readBytes             metrics.Counter
}

// useMetrics publishes the counters, and the residency the eviction loop
// keeps, on reg (mqsched_pagespace_*).
func (m *Manager) useMetrics(reg *metrics.Registry) {
	reg.PublishCounter("mqsched_pagespace_hits_total",
		"Page requests served from a resident page.", &m.mx.hits)
	reg.PublishCounter("mqsched_pagespace_misses_total",
		"Page requests that issued a disk read.", &m.mx.misses)
	reg.PublishCounter("mqsched_pagespace_dedup_coalesced_total",
		"Duplicate in-flight page requests eliminated by coalescing onto an existing read.", &m.mx.dedupCoalesced)
	reg.PublishCounter("mqsched_pagespace_evictions_total",
		"Resident pages dropped under the byte budget.", &m.mx.evictions)
	reg.PublishCounter("mqsched_pagespace_prefetches_total",
		"Background fetches started by StartFetch.", &m.mx.prefetches)
	reg.PublishCounter("mqsched_pagespace_prefetch_drops_total",
		"StartFetch hints dropped at the background-fetch concurrency cap.", &m.mx.prefetchDrops)
	reg.PublishCounter("mqsched_pagespace_read_bytes_total",
		"Bytes fetched from the disk farm.", &m.mx.readBytes)
	reg.GaugeFunc("mqsched_pagespace_resident_bytes",
		"Bytes currently resident.", func() float64 { return float64(m.residentBytes.Load()) })
	reg.GaugeFunc("mqsched_pagespace_resident_pages",
		"Pages currently resident.", func() float64 { return float64(m.residentPages.Load()) })
}

// Manager is the page space manager.
type Manager struct {
	rtm   rt.Runtime
	table *dataset.Table
	farm  *disk.Farm
	opts  Options

	mx psMetrics
	// residentBytes is what evictOverBudget holds against the budget, and
	// residentPages its page count: state, not statistics. The registry
	// shows them through callback gauges.
	residentBytes, residentPages atomic.Int64

	shards []shard
	// clock is the global LRU touch counter: every access stamps the page,
	// so eviction can compare shard tails and drop the globally oldest.
	clock atomic.Int64
	// prefetching counts in-flight background fetches against PrefetchLimit.
	prefetching atomic.Int64

	newGate func(string) rt.Gate
}

// shard is one lock stripe: a page table plus an LRU list of its resident
// pages (front = most recent).
type shard struct {
	mu    sync.Mutex
	pages map[pageKey]*pageEntry
	lru   *list.List // values are *pageEntry
}

type pageKey struct {
	ds   string
	page int
}

type pageEntry struct {
	key      pageKey
	size     int64
	resident bool
	gate     rt.Gate // open when the fetch completes (only while fetching)
	data     []byte
	elem     *list.Element
	touch    int64 // global LRU clock at last access (shard lock held)
}

// lockStripes is the number of shards pages hash onto; the byte budget stays
// global.
const lockStripes = 16

// New returns a manager over the farm for the given datasets.
func New(r rt.Runtime, table *dataset.Table, farm *disk.Farm, opts Options) *Manager {
	if opts.Budget == 0 {
		opts.Budget = 32 << 20
	}
	if opts.PrefetchLimit == 0 {
		opts.PrefetchLimit = 2 * farm.Disks()
	}
	m := &Manager{
		rtm:     r,
		table:   table,
		farm:    farm,
		opts:    opts,
		shards:  make([]shard, lockStripes),
		newGate: func(reason string) rt.Gate { return r.NewGate(reason) },
	}
	for i := range m.shards {
		m.shards[i].pages = map[pageKey]*pageEntry{}
		m.shards[i].lru = list.New()
	}
	m.useMetrics(opts.Metrics)
	return m
}

// shardFor maps a page key onto its lock stripe (deterministic).
func (m *Manager) shardFor(k pageKey) *shard {
	h := fnv.New32a()
	h.Write([]byte(k.ds))
	var b [4]byte
	b[0] = byte(k.page)
	b[1] = byte(k.page >> 8)
	b[2] = byte(k.page >> 16)
	b[3] = byte(k.page >> 24)
	h.Write(b[:])
	return &m.shards[h.Sum32()%uint32(len(m.shards))]
}

// Budget returns the configured byte budget.
func (m *Manager) Budget() int64 { return m.opts.Budget }

// Used returns the bytes currently resident.
func (m *Manager) Used() int64 { return m.residentBytes.Load() }

// Stats reads the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:          m.mx.hits.Value(),
		Misses:        m.mx.misses.Value(),
		InflightWaits: m.mx.dedupCoalesced.Value(),
		Evictions:     m.mx.evictions.Value(),
		BytesRead:     m.mx.readBytes.Value(),
		Prefetches:    m.mx.prefetches.Value(),
		PrefetchDrops: m.mx.prefetchDrops.Value(),
	}
}

// ReadPage returns the payload of one page (nil on the synthetic runtime),
// blocking the calling process for any disk time. It implements
// query.PageReader. The read is recorded as a span (subsystem "pagespace",
// op "read") under the span ctx carries, with the page, outcome (hit,
// coalesced, miss, miss-dup), and bytes; any disk read it issues nests a disk
// span under it.
func (m *Manager) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	span := rt.SpanOf(ctx).Child(trace.SubPagespace, trace.OpRead,
		trace.Str(trace.AttrDataset, ds), trace.I64(trace.AttrPage, int64(page)))
	l := m.table.Get(ds)
	k := pageKey{ds, page}
	sh := m.shardFor(k)
	coalesced := false
	for {
		sh.mu.Lock()
		e := sh.pages[k]
		switch {
		case e != nil && e.resident:
			m.mx.hits.Inc()
			sh.lru.MoveToFront(e.elem)
			e.touch = m.clock.Add(1)
			data := e.data
			size := e.size
			sh.mu.Unlock()
			outcome := "hit"
			if coalesced {
				outcome = "coalesced"
			}
			span.Finish(trace.Str(trace.AttrOutcome, outcome), trace.I64(trace.AttrBytes, size))
			return data

		case e != nil && !m.opts.DisableDedup:
			// A fetch is in flight: coalesce onto it.
			m.mx.dedupCoalesced.Inc()
			coalesced = true
			gate := e.gate
			sh.mu.Unlock()
			gate.Wait(ctx)
			// The page is normally resident now, but may already have been
			// evicted under memory pressure; retry from the top.
			continue

		case e != nil:
			// Dedup disabled: issue a duplicate read without registering it.
			m.mx.misses.Inc()
			sh.mu.Unlock()
			data := m.fetchUntracked(rt.WithSpan(ctx, span), l, page)
			span.Finish(trace.Str(trace.AttrOutcome, "miss-dup"),
				trace.I64(trace.AttrBytes, l.PageBytes(page)))
			return data

		default:
			e = &pageEntry{key: k, gate: m.newGate(fmt.Sprintf("page %s/%d", ds, page))}
			sh.pages[k] = e
			m.mx.misses.Inc()
			sh.mu.Unlock()
			data := m.fetchAndPublish(rt.WithSpan(ctx, span), l, e)
			span.Finish(trace.Str(trace.AttrOutcome, "miss"),
				trace.I64(trace.AttrBytes, l.PageBytes(page)))
			return data
		}
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
func (m *Manager) ReadPages(ctx rt.Ctx, ds string, pages []int) [][]byte {
	if len(pages) == 0 {
		return nil
	}
	span := rt.SpanOf(ctx).Child(trace.SubPagespace, trace.OpReadBatch,
		trace.Str(trace.AttrDataset, ds), trace.I64(trace.AttrPages, int64(len(pages))))
	ctx = rt.WithSpan(ctx, span)
	l := m.table.Get(ds)
	out := make([][]byte, len(pages))

	// Pass 1: classify every page under its shard lock, without blocking.
	// Absent pages are registered (owned by this call); in-flight pages are
	// deferred to pass 3, where the ordinary coalescing path waits for them.
	var owned []*pageEntry // entries registered and fetched by this call
	var ownedIdx []int     // input index of each owned entry (first occurrence)
	var dupIdx []int       // dedup-disabled duplicate reads, by input index
	var waiters []int      // input indices deferred to the coalescing path
	var hits, misses int64
	for i, p := range pages {
		k := pageKey{ds, p}
		sh := m.shardFor(k)
		sh.mu.Lock()
		e := sh.pages[k]
		switch {
		case e != nil && e.resident:
			hits++
			sh.lru.MoveToFront(e.elem)
			e.touch = m.clock.Add(1)
			out[i] = e.data
			sh.mu.Unlock()

		case e != nil && !m.opts.DisableDedup:
			sh.mu.Unlock()
			waiters = append(waiters, i)

		case e != nil:
			// Dedup disabled: duplicate read, paid but not cached.
			misses++
			sh.mu.Unlock()
			dupIdx = append(dupIdx, i)

		default:
			e = &pageEntry{key: k, gate: m.newGate(fmt.Sprintf("page %s/%d", ds, p))}
			sh.pages[k] = e
			misses++
			sh.mu.Unlock()
			owned = append(owned, e)
			ownedIdx = append(ownedIdx, i)
		}
	}
	m.mx.hits.Add(hits)
	m.mx.misses.Add(misses)

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
			m.publish(l, e, datas[j])
			out[ownedIdx[j]] = datas[j]
		}
		for j, i := range dupIdx {
			out[i] = datas[len(owned)+j]
			m.mx.readBytes.Add(l.PageBytes(pages[i]))
		}
	}

	// Pass 3: indices deferred onto in-flight fetches (including duplicate
	// occurrences within pages itself) go through the ordinary per-page path,
	// which waits on the owning fetch's gate and handles eviction races.
	for _, i := range waiters {
		out[i] = m.ReadPage(ctx, ds, pages[i])
	}
	span.Finish(trace.I64(trace.AttrHits, hits), trace.I64(trace.AttrMisses, misses),
		trace.I64(trace.AttrCoalesced, int64(len(waiters))))
	return out
}

// fetchAndPublish reads the page from the farm and makes it resident. The
// span ctx carries parents the disk span (inert for background prefetches,
// which run on their own process's ctx).
func (m *Manager) fetchAndPublish(ctx rt.Ctx, l *dataset.Layout, e *pageEntry) []byte {
	data := m.farm.Read(ctx, l, e.key.page)
	m.publish(l, e, data)
	return data
}

// publish makes a fetched page resident, charges it against the budget, and
// wakes coalesced waiters.
func (m *Manager) publish(l *dataset.Layout, e *pageEntry, data []byte) {
	size := l.PageBytes(e.key.page)
	sh := m.shardFor(e.key)

	sh.mu.Lock()
	e.resident = true
	e.data = data
	e.size = size
	e.elem = sh.lru.PushFront(e)
	e.touch = m.clock.Add(1)
	sh.mu.Unlock()

	m.residentBytes.Add(size)
	m.residentPages.Add(1)
	m.mx.readBytes.Add(size)
	m.evictOverBudget(e)
	e.gate.Open() // wake coalesced waiters (no park: open is non-blocking)
}

// fetchUntracked is the dedup-disabled duplicate read path: disk time is
// paid but the cache is left to the tracked fetch.
func (m *Manager) fetchUntracked(ctx rt.Ctx, l *dataset.Layout, page int) []byte {
	data := m.farm.Read(ctx, l, page)
	m.mx.readBytes.Add(l.PageBytes(page))
	return data
}

// evictOverBudget drops least-recently-used resident pages until the global
// budget is met, never evicting keep (the page just fetched: the requester
// is entitled to it even if the budget is too small to hold a single page).
func (m *Manager) evictOverBudget(keep *pageEntry) {
	for m.residentBytes.Load() > m.opts.Budget {
		if !m.evictOldest(keep) {
			return
		}
	}
}

// evictOldest drops the globally least-recently-used resident page other
// than keep, comparing the per-shard LRU tails by touch stamp. It locks one
// shard at a time (no nesting); under concurrent access the chosen tail may
// have been touched between the scan and the eviction, which only costs LRU
// exactness, never correctness. It reports whether a page was evicted.
func (m *Manager) evictOldest(keep *pageEntry) bool {
	var victim *shard
	oldest := int64(math.MaxInt64)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for elem := sh.lru.Back(); elem != nil; elem = elem.Prev() {
			e := elem.Value.(*pageEntry)
			if e == keep {
				continue // protected; the next older element is this shard's tail
			}
			if e.touch < oldest {
				oldest = e.touch
				victim = sh
			}
			break
		}
		sh.mu.Unlock()
	}
	if victim == nil {
		return false
	}
	victim.mu.Lock()
	defer victim.mu.Unlock()
	for elem := victim.lru.Back(); elem != nil; elem = elem.Prev() {
		e := elem.Value.(*pageEntry)
		if e == keep {
			continue
		}
		victim.lru.Remove(elem)
		delete(victim.pages, e.key)
		m.residentBytes.Add(-e.size)
		m.residentPages.Add(-1)
		m.mx.evictions.Inc()
		return true
	}
	return false
}

// StartFetch begins fetching the page in the background if it is neither
// resident nor already in flight (query.Prefetcher). The fetch runs in its
// own process; later ReadPage calls coalesce onto it. Background fetches are
// capped at Options.PrefetchLimit — hints beyond the cap are dropped, since
// a prefetch is only a hint and must not starve foreground reads at the
// disks. With dedup disabled (ablation A2) prefetching is also disabled, as
// there is nothing for the foreground read to coalesce onto.
func (m *Manager) StartFetch(ds string, page int) {
	if m.opts.DisableDedup {
		return
	}
	// Reserve a background-fetch slot before registering the page: a
	// registered-but-dropped entry would strand coalesced waiters on a gate
	// that never opens.
	if limit := int64(m.opts.PrefetchLimit); limit > 0 {
		if m.prefetching.Add(1) > limit {
			m.prefetching.Add(-1)
			m.mx.prefetchDrops.Inc()
			return
		}
	}
	l := m.table.Get(ds)
	k := pageKey{ds, page}
	sh := m.shardFor(k)
	sh.mu.Lock()
	if _, exists := sh.pages[k]; exists {
		sh.mu.Unlock()
		m.releasePrefetchSlot()
		return
	}
	e := &pageEntry{key: k, gate: m.newGate(fmt.Sprintf("prefetch %s/%d", ds, page))}
	sh.pages[k] = e
	m.mx.prefetches.Inc()
	sh.mu.Unlock()
	m.rtm.Spawn(fmt.Sprintf("prefetch-%s-%d", ds, page), func(ctx rt.Ctx) {
		m.fetchAndPublish(ctx, l, e)
		m.releasePrefetchSlot()
	})
}

// StartFetchBatch begins fetching a run of pages in the background
// (query.BatchPrefetcher). Pages already resident or in flight are skipped;
// the remainder are submitted to the farm as one batched read in a single
// background process, so an elevator-scheduled farm can merge them into
// multi-page transfers. The whole batch consumes one background-fetch slot
// against Options.PrefetchLimit; if no slot is free the entire hint is
// dropped (counted once in PrefetchDrops).
func (m *Manager) StartFetchBatch(ds string, pages []int) {
	if m.opts.DisableDedup || len(pages) == 0 {
		return
	}
	if limit := int64(m.opts.PrefetchLimit); limit > 0 {
		if m.prefetching.Add(1) > limit {
			m.prefetching.Add(-1)
			m.mx.prefetchDrops.Inc()
			return
		}
	}
	l := m.table.Get(ds)
	var fetch []*pageEntry
	var fetchPages []int
	for _, p := range pages {
		k := pageKey{ds, p}
		sh := m.shardFor(k)
		sh.mu.Lock()
		if _, exists := sh.pages[k]; exists {
			sh.mu.Unlock()
			continue
		}
		e := &pageEntry{key: k, gate: m.newGate(fmt.Sprintf("prefetch %s/%d", ds, p))}
		sh.pages[k] = e
		m.mx.prefetches.Inc()
		sh.mu.Unlock()
		fetch = append(fetch, e)
		fetchPages = append(fetchPages, p)
	}
	if len(fetch) == 0 {
		m.releasePrefetchSlot()
		return
	}
	name := fmt.Sprintf("prefetch-%s-%d+%d", ds, fetchPages[0], len(fetchPages))
	m.rtm.Spawn(name, func(ctx rt.Ctx) {
		datas := m.farm.ReadPages(ctx, l, fetchPages)
		for i, e := range fetch {
			m.publish(l, e, datas[i])
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

// releasePrefetchSlot returns a reserved background-fetch slot.
func (m *Manager) releasePrefetchSlot() {
	if m.opts.PrefetchLimit > 0 {
		m.prefetching.Add(-1)
	}
}

// Resident reports whether the page is currently cached (for tests).
func (m *Manager) Resident(ds string, page int) bool {
	k := pageKey{ds, page}
	sh := m.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.pages[k]
	return e != nil && e.resident
}
