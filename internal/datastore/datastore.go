// Package datastore implements the Data Store Manager (DS): "dynamic
// storage space for intermediate data structures generated as partial or
// final results for a query. The most important feature of the data store is
// that it records semantic information about intermediate data structures.
// This allows the use of intermediate results to answer queries later
// submitted to the system" (paper §2).
//
// Insert is the malloc-with-meta-data operation; Lookup is the overlap-based
// search the query server uses to find reusable results. Eviction fires the
// OnEvict hook so the scheduler can move the corresponding query node to
// SWAPPED OUT and drop it from the scheduling graph.
//
// Two cache policies are provided (Options.Policy). The default, PolicyLRU,
// is the paper's cache-everything/evict-by-recency behaviour. PolicyCost is
// a benefit-aware cache: each entry carries a value model (observed
// projection hits, bytes projected out, the recompute cost the server
// reports with the insert), eviction picks the entry with the lowest
// GDSF-style priority, and admission control rejects newcomers whose aged
// priority does not reach the entries they would displace (each reject ages
// the cache, so fresh streams get admitted within a few rounds).
//
// The manager also takes output bytes back. Every real-runtime output buffer
// carries a holder count (query.Buf): the entries holding it, taken in
// Insert and dropped on eviction, and its owners, dropped by Release. A
// buffer nothing holds goes on a free list keyed by its exact size, from
// which TakeFree hands it to the next output of that size. Held and free
// bytes together stay within the budget.
package datastore

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"mqsched/internal/metrics"
	"mqsched/internal/query"
	"mqsched/internal/spatial"
)

// Entry is a stored intermediate result with its semantic meta-data.
type Entry struct {
	ID   int64
	Blob *query.Blob
	// Owner is InsertInfo.Owner, set under the manager's lock before the
	// entry can be evicted, so OnEvict always sees it.
	Owner any

	m       *Manager
	pins    int
	evicted bool
	// lastUse orders LRU eviction; it is a logical counter, not a clock, so
	// behaviour is identical on the simulated and real runtimes.
	lastUse int64

	// Value model (PolicyCost): hits counts actual projections out of this
	// entry, projected the bytes they handed out, cost the estimated seconds
	// to recompute the result, prio the aged GDSF priority (clock at last
	// value change plus benefit).
	hits      int64
	projected int64
	cost      float64
	prio      float64
}

// Meta returns the predicate the stored result answers.
func (e *Entry) Meta() query.Meta { return e.Blob.Meta }

// Size returns the stored size in bytes.
func (e *Entry) Size() int64 { return e.Blob.Size }

// Unpin releases a pin taken by Lookup. The entry becomes evictable when its
// pin count reaches zero.
func (e *Entry) Unpin() {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	if e.pins <= 0 {
		panic("datastore: Unpin without matching pin")
	}
	e.pins--
}

// Evicted reports whether the entry has been swapped out.
func (e *Entry) Evicted() bool {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	return e.evicted
}

// MarkProjected records that the caller actually projected this entry into a
// query output: it charges the entry's size to the reused-bytes accounting
// and feeds the entry's value model. The server calls it once per performed
// projection — not per lookup candidate, which would over-count entries that
// are pinned by a lookup but skipped because an earlier candidate already
// covered the query.
func (e *Entry) MarkProjected() {
	m := e.m
	m.mu.Lock()
	defer m.mu.Unlock()
	e.hits++
	e.projected += e.Blob.Size
	m.mx.reusedBytes.Add(e.Blob.Size)
	if m.opts.Policy == PolicyCost && !e.evicted {
		e.prio = m.clock + e.benefit()
	}
}

// Hits returns the number of times the entry was projected into an output.
func (e *Entry) Hits() int64 {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	return e.hits
}

// benefit is the entry's value density: expected reuse × recompute cost per
// byte. The frequency term is damped logarithmically — browsing workloads are
// recency-skewed, and a linear hit multiplier lets long-resident entries
// build an incumbency moat that starves newcomers at admission time.
// Callers hold the manager's lock.
func (e *Entry) benefit() float64 {
	freq := 1 + math.Log2(1+float64(e.hits))
	return freq * e.cost / float64(max(e.Blob.Size, 1))
}

// Stats are cumulative DS counters.
type Stats struct {
	Inserts     int64
	Rejected    int64 // results too large (or too pinned a cache) to store
	Evictions   int64
	Lookups     int64
	LookupHits  int64 // lookups returning at least one candidate
	BytesStored int64 // current resident bytes (gauge)
	// ReusedBytes counts bytes of stored results actually projected into
	// query outputs (MarkProjected), not merely handed out by lookups.
	ReusedBytes int64
	// AdmitRejects counts results refused by admission control (PolicyCost):
	// their expected benefit did not beat the entries they would displace.
	AdmitRejects int64
	// RecycledBuffers counts output buffers TakeFree handed out again.
	RecycledBuffers int64
	// FreeBytes is the bytes on the free list (gauge).
	FreeBytes int64
}

// Options configure the manager.
type Options struct {
	// Budget is the DS memory in bytes (the paper varies 32-128 MB).
	// Default DefaultBudget.
	Budget int64
	// Metrics is the registry the manager's counters and gauges are
	// published on (mqsched_datastore_*); nil publishes nowhere.
	Metrics *metrics.Registry
	// Policy selects the admission/eviction behaviour (default PolicyLRU,
	// the paper's cache-everything/evict-by-recency data store).
	Policy Policy
}

// dsMetrics are the manager's counters, each event counted here once: Stats
// reads them and publish names them on the registry. The two gauges follow
// Manager.used and len(Manager.entries), the state eviction works from.
type dsMetrics struct {
	lookupFull, lookupPartial, lookupMiss metrics.Counter
	reusedBytes                           metrics.Counter
	inserts, rejected, evictions          metrics.Counter
	swappedOutBytes                       metrics.Counter
	admitRejects, recycled                metrics.Counter
	residentBytes, entries, freeBytes     metrics.Gauge
	policyInfo                            metrics.Gauge // constant 1
}

// publish registers every series on reg (mqsched_datastore_*).
func (x *dsMetrics) publish(reg *metrics.Registry, policy Policy) {
	const lookups = "Data store lookups by outcome: full (an exact or fully covering result), partial, or miss."
	reg.PublishCounter("mqsched_datastore_lookups_total", lookups, &x.lookupFull, metrics.L("result", "full"))
	reg.PublishCounter("mqsched_datastore_lookups_total", lookups, &x.lookupPartial, metrics.L("result", "partial"))
	reg.PublishCounter("mqsched_datastore_lookups_total", lookups, &x.lookupMiss, metrics.L("result", "miss"))
	x.policyInfo.Set(1)
	reg.PublishGauge("mqsched_datastore_policy_info",
		"Active cache policy: constant 1, labelled with the policy name.",
		&x.policyInfo, metrics.L("policy", policy.String()))
	reg.PublishCounter("mqsched_datastore_reused_bytes_total",
		"Bytes of cached intermediate results actually projected into query outputs.", &x.reusedBytes)
	reg.PublishCounter("mqsched_datastore_inserts_total",
		"Intermediate results stored.", &x.inserts)
	reg.PublishCounter("mqsched_datastore_rejected_total",
		"Results too large (or the cache too pinned) to store.", &x.rejected)
	reg.PublishCounter("mqsched_datastore_evictions_total",
		"Entries swapped out under memory pressure or dropped explicitly.", &x.evictions)
	reg.PublishCounter("mqsched_datastore_swapped_out_bytes_total",
		"Bytes reclaimed by evictions.", &x.swappedOutBytes)
	reg.PublishCounter("mqsched_datastore_policy_admit_rejects_total",
		"Results refused by admission control: expected benefit below the would-be victims'.", &x.admitRejects)
	reg.PublishGauge("mqsched_datastore_resident_bytes",
		"Bytes currently stored.", &x.residentBytes)
	reg.PublishGauge("mqsched_datastore_entries",
		"Entries currently stored.", &x.entries)
	reg.PublishCounter("mqsched_datastore_recycled_buffers_total",
		"Output buffers taken from the free list instead of allocated.", &x.recycled)
	reg.PublishGauge("mqsched_datastore_free_bytes",
		"Bytes of output buffers on the free list.", &x.freeBytes)
}

// Manager is the data store manager.
type Manager struct {
	app  query.App
	opts Options

	// OnEvict, if set, is called (with the manager's lock held) whenever an
	// entry is swapped out. The callback must not call back into the
	// manager.
	OnEvict func(*Entry)
	// OnFree, if set, is called (with the manager's lock held) on every
	// buffer the free list takes in. Tests scribble over the bytes with it,
	// so an output that leaves a recycled byte unwritten shows.
	OnFree func([]byte)

	mx dsMetrics

	mu      sync.Mutex
	nextID  int64
	useTick int64
	used    int64
	entries map[int64]*Entry
	trees   map[string]*spatial.Tree[*Entry] // per-dataset spatial index
	hits    []*Entry                         // Lookup's index search results

	// Recycling. held is the size of every buffer at least one entry holds,
	// each counted once (used counts a shared buffer once per entry); free
	// the size of the buffers on the free list, by exact size. held + free
	// never exceeds the budget.
	held, free int64
	freeBufs   map[int64][][]byte

	// clock is PolicyCost's GDSF aging term: it rises to the evicted
	// priority on each eviction and to the refused priority on each
	// admission reject, so entries inserted later start ahead of long-idle
	// survivors and a run of rejects cannot freeze the cache.
	clock float64
}

// InsertInfo carries the value-model inputs of one insert.
type InsertInfo struct {
	// CostSeconds is the observed cost of producing the blob on the
	// runtime's clock (the server reports execution time minus producer
	// stalls). A result that took no time to produce has no benefit: a
	// non-positive cost counts as zero, which makes it the first victim.
	CostSeconds float64
	// BatchParent marks a batch group's parent aggregate: it bypasses the
	// admission comparison (the group's members are about to project from
	// it) and starts with a reuse expectation, so it is not evicted before
	// first use.
	BatchParent bool
	// Owner is whatever the caller wants back when the entry is evicted (the
	// server passes the scheduling-graph node the result belongs to); the
	// manager only carries it onto Entry.Owner.
	Owner any
}

// DefaultBudget is the byte budget of a data store whose Options.Budget is
// zero.
const DefaultBudget = 64 << 20

// New returns a data store for results of app.
func New(app query.App, opts Options) *Manager {
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	m := &Manager{
		app:      app,
		opts:     opts,
		entries:  map[int64]*Entry{},
		trees:    map[string]*spatial.Tree[*Entry]{},
		freeBufs: map[int64][][]byte{},
	}
	m.mx.publish(opts.Metrics, opts.Policy)
	return m
}

// Budget returns the configured byte budget.
func (m *Manager) Budget() int64 { return m.opts.Budget }

// Policy returns the active cache policy.
func (m *Manager) Policy() Policy { return m.opts.Policy }

// Used returns the bytes currently stored.
func (m *Manager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Len returns the number of stored entries.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats reads the counters. Lookups and LookupHits are sums over the
// lookup outcomes.
func (m *Manager) Stats() Stats {
	x := &m.mx
	hits := x.lookupFull.Value() + x.lookupPartial.Value()
	return Stats{
		Inserts:      x.inserts.Value(),
		Rejected:     x.rejected.Value(),
		Evictions:    x.evictions.Value(),
		Lookups:      hits + x.lookupMiss.Value(),
		LookupHits:   hits,
		BytesStored:  x.residentBytes.Value(),
		ReusedBytes:  x.reusedBytes.Value(),
		AdmitRejects: x.admitRejects.Value(),

		RecycledBuffers: x.recycled.Value(),
		FreeBytes:       x.freeBytes.Value(),
	}
}

// Insert stores blob, evicting older unpinned entries as needed, and returns
// the new entry. It returns nil when the result cannot be stored (larger
// than the whole budget, the budget is fully pinned, or — under PolicyCost —
// admission control refuses it); the query still completes, its result just
// is not reusable.
func (m *Manager) Insert(blob *query.Blob) *Entry { return m.InsertWith(blob, InsertInfo{}) }

// InsertWith is Insert with the value-model inputs of the new result.
func (m *Manager) InsertWith(blob *query.Blob, info InsertInfo) *Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if blob.Size > m.opts.Budget {
		m.mx.rejected.Inc()
		return nil
	}
	if m.opts.Policy == PolicyCost {
		return m.insertCostLocked(blob, info)
	}
	if !m.makeRoomLocked(blob.Size) {
		m.mx.rejected.Inc()
		return nil
	}
	return m.storeLocked(blob, info, 0, 0, 0)
}

// storeLocked creates the entry and does the shared bookkeeping.
func (m *Manager) storeLocked(blob *query.Blob, info InsertInfo, hits int64, cost, prio float64) *Entry {
	m.nextID++
	m.useTick++
	e := &Entry{
		ID: m.nextID, Blob: blob, Owner: info.Owner, m: m, lastUse: m.useTick,
		hits: hits, cost: cost, prio: prio,
	}
	m.entries[e.ID] = e
	m.treeFor(blob.Meta.Dataset()).Insert(blob.Meta.Region(), e)
	m.used += blob.Size
	if b := blob.Buf; b != nil {
		if b.Entries++; b.Entries == 1 {
			m.held += blob.Size
			m.trimFreeLocked()
		}
	}
	m.mx.inserts.Inc()
	m.mx.residentBytes.Set(m.used)
	m.mx.entries.Set(int64(len(m.entries)))
	return e
}

// insertCostLocked is the PolicyCost insert path: estimate the newcomer's
// benefit, plan the evictions its admission would require, and admit only
// when it beats the displaced entries (batch parents always admit into
// evictable space, expecting their group's projections).
func (m *Manager) insertCostLocked(blob *query.Blob, info InsertInfo) *Entry {
	cost := max(info.CostSeconds, 0)
	var hits int64
	if info.BatchParent {
		hits = 2
	}
	benefit := float64(hits+1) * cost / float64(max(blob.Size, 1))

	prio := m.clock + benefit
	if need := m.used + blob.Size - m.opts.Budget; need > 0 {
		victims, freed, maxPrio := m.victimPlanLocked(need)
		if freed < need {
			// The budget is too pinned; same outcome as LRU.
			m.mx.rejected.Inc()
			return nil
		}
		if !info.BatchParent && maxPrio > prio {
			// Admission control: the newcomer's aged priority does not reach
			// the entries it would displace. The reject itself ages the
			// cache (a "virtual eviction" — the clock rises to the refused
			// priority), so a run of rejects cannot freeze the cache: stale
			// survivors fall behind the clock and newcomers win within a few
			// rounds unless residents keep re-earning their keep through
			// projections.
			m.clock = prio
			m.mx.admitRejects.Inc()
			return nil
		}
		for _, v := range victims {
			m.evictLocked(v)
		}
		// GDSF aging: future inserts start at the evicted priority level.
		if maxPrio > m.clock {
			m.clock = maxPrio
			prio = m.clock + benefit
		}
	}
	return m.storeLocked(blob, info, hits, cost, prio)
}

// victimPlanLocked collects the lowest-priority unpinned entries until their
// sizes cover need, reporting the bytes they free and the highest aged
// priority among them (the bar a newcomer must reach for admission).
func (m *Manager) victimPlanLocked(need int64) (victims []*Entry, freed int64, maxPrio float64) {
	cands := make([]*Entry, 0, len(m.entries))
	for _, e := range m.entries {
		if e.pins == 0 {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio < cands[j].prio
		}
		return cands[i].ID < cands[j].ID
	})
	for _, e := range cands {
		if freed >= need {
			break
		}
		victims = append(victims, e)
		freed += e.Blob.Size
		if e.prio > maxPrio {
			maxPrio = e.prio
		}
	}
	return victims, freed, maxPrio
}

// makeRoomLocked evicts LRU unpinned entries until size fits, reporting
// success.
func (m *Manager) makeRoomLocked(size int64) bool {
	for m.used+size > m.opts.Budget {
		victim := m.lruVictimLocked()
		if victim == nil {
			return false
		}
		m.evictLocked(victim)
	}
	return true
}

// lruVictimLocked returns the unpinned entry with the oldest use, or nil.
func (m *Manager) lruVictimLocked() *Entry {
	var victim *Entry
	for _, e := range m.entries {
		if e.pins > 0 {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse ||
			(e.lastUse == victim.lastUse && e.ID < victim.ID) {
			victim = e
		}
	}
	return victim
}

func (m *Manager) evictLocked(e *Entry) {
	delete(m.entries, e.ID)
	m.treeFor(e.Blob.Meta.Dataset()).Delete(e.Blob.Meta.Region(), e)
	m.used -= e.Blob.Size
	if b := e.Blob.Buf; b != nil {
		if b.Entries--; b.Entries == 0 {
			m.held -= e.Blob.Size
			m.freeIfUnheldLocked(e.Blob)
		}
	}
	e.evicted = true
	m.mx.evictions.Inc()
	m.mx.swappedOutBytes.Add(e.Blob.Size)
	m.mx.residentBytes.Set(m.used)
	m.mx.entries.Set(int64(len(m.entries)))
	if m.OnEvict != nil {
		m.OnEvict(e)
	}
}

// Candidate is a lookup result: a stored entry and its overlap index with
// the probe query.
type Candidate struct {
	Entry   *Entry
	Overlap float64
}

// Lookup finds stored results usable for dst: entries on the same dataset
// whose region intersects dst's and whose user-defined overlap (Equation 2)
// is at least minOverlap (> 0). Results are pinned — the caller must Unpin
// each one — and sorted by decreasing overlap, exact matches (Cmp) first.
// Candidates are not charged as reused here: the caller reports actual use
// per projection via Entry.MarkProjected.
func (m *Manager) Lookup(dst query.Meta, minOverlap float64) []Candidate {
	if minOverlap <= 0 {
		minOverlap = 1e-12
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tree, ok := m.trees[dst.Dataset()]
	if !ok {
		m.mx.lookupMiss.Inc()
		return nil
	}
	var out []Candidate
	hits := tree.Search(dst.Region(), m.hits[:0])
	for i, e := range hits {
		ov := m.app.Overlap(e.Blob.Meta, dst)
		if ov < minOverlap {
			continue
		}
		if out == nil {
			out = make([]Candidate, 0, len(hits)-i) // room for every hit left
		}
		out = append(out, Candidate{Entry: e, Overlap: ov})
	}
	clear(hits) // the buffer keeps no entry alive
	m.hits = hits[:0]
	if len(out) == 0 {
		m.mx.lookupMiss.Inc()
		return nil
	}
	// A total order (IDs are unique), so an unstable sort is deterministic.
	slices.SortFunc(out, func(ci, cj Candidate) int {
		ei := m.app.Cmp(ci.Entry.Blob.Meta, dst)
		ej := m.app.Cmp(cj.Entry.Blob.Meta, dst)
		if ei != ej {
			if ei {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(cj.Overlap, ci.Overlap); c != 0 {
			return c
		}
		return cmp.Compare(ci.Entry.ID, cj.Entry.ID)
	})
	m.useTick++
	for _, c := range out {
		c.Entry.pins++
		c.Entry.lastUse = m.useTick
	}
	if m.app.Cmp(out[0].Entry.Blob.Meta, dst) || out[0].Overlap >= 1 {
		m.mx.lookupFull.Inc()
	} else {
		m.mx.lookupPartial.Inc()
	}
	return out
}

// Drop removes an entry explicitly (e.g. an application-driven invalidation).
// It is a no-op if the entry is already evicted; dropping a pinned entry
// panics.
func (m *Manager) Drop(e *Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.evicted {
		return
	}
	if e.pins > 0 {
		panic("datastore: Drop of pinned entry")
	}
	m.evictLocked(e)
}

func (m *Manager) treeFor(ds string) *spatial.Tree[*Entry] {
	t, ok := m.trees[ds]
	if !ok {
		t = spatial.NewTree[*Entry]()
		m.trees[ds] = t
	}
	return t
}

// Hold takes an owner's hold on b's bytes (an exact repeat answering with
// them). The caller must already hold them, or hold a pin on an entry that
// does, so the count cannot have reached zero. A Blob without a Buf is left
// alone.
func (m *Manager) Hold(b *query.Blob) {
	if b.Buf == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Buf.Entries == 0 && b.Buf.Owners == 0 {
		panic("datastore: Hold of bytes nothing holds")
	}
	b.Buf.Owners++
}

// Release drops an owner's hold on b's bytes. When nothing holds them any
// more they go on the free list, if it has room, for the next output of
// their size; the caller must not touch them afterwards.
func (m *Manager) Release(b *query.Blob) {
	if b.Buf == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Buf.Owners <= 0 {
		panic("datastore: Release without a matching hold")
	}
	b.Buf.Owners--
	m.freeIfUnheldLocked(b)
}

// TakeFree returns a buffer of exactly size bytes from the free list, or nil
// if there is none. Its bytes are an earlier output's: the caller overwrites
// every one before anyone reads it.
func (m *Manager) TakeFree(size int64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.freeBufs[size]
	if len(list) == 0 {
		return nil
	}
	data := list[len(list)-1]
	list[len(list)-1] = nil
	m.freeBufs[size] = list[:len(list)-1]
	m.free -= size
	m.mx.recycled.Inc()
	m.mx.freeBytes.Set(m.free)
	return data
}

// freeIfUnheldLocked puts b's bytes on the free list once nothing holds
// them, unless they would take held + free over the budget.
func (m *Manager) freeIfUnheldLocked(b *query.Blob) {
	if b.Buf.Entries > 0 || b.Buf.Owners > 0 || b.Size == 0 || m.held+m.free+b.Size > m.opts.Budget {
		return
	}
	if m.OnFree != nil {
		m.OnFree(b.Data)
	}
	m.freeBufs[b.Size] = append(m.freeBufs[b.Size], b.Data)
	m.free += b.Size
	m.mx.freeBytes.Set(m.free)
}

// trimFreeLocked drops free buffers, the largest first, until held + free
// fits the budget again.
func (m *Manager) trimFreeLocked() {
	for m.held+m.free > m.opts.Budget && m.free > 0 {
		var size int64
		for s, list := range m.freeBufs {
			if len(list) > 0 {
				size = max(size, s)
			}
		}
		list := m.freeBufs[size]
		list[len(list)-1] = nil
		m.freeBufs[size] = list[:len(list)-1]
		m.free -= size
	}
	m.mx.freeBytes.Set(m.free)
}
