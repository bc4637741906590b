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
// projection hits, bytes projected out, estimated recompute cost fed from
// the server's execution timings), eviction picks the entry with the lowest
// GDSF-style priority, admission control rejects newcomers whose aged
// priority does not reach the entries they would displace (each reject ages
// the cache and losers are ghost-tracked, so repeat offenders and fresh
// streams both get admitted within a few rounds), and hot regions that keep
// missing promote proactive-materialization hints for coarse parent
// aggregates finer queries can project from (Equation 4).
package datastore

import (
	"math"
	"sort"
	"sync"

	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/query"
	"mqsched/internal/spatial"
	"mqsched/internal/trace"
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
	// GhostHits counts inserts whose predicate was found in the ghost list —
	// evidence a previously rejected or evicted result is being reproduced.
	GhostHits int64
	// MaterializeHints counts proactive-materialization hints emitted for
	// hot regions (PolicyCost; consumed via TakeHints).
	MaterializeHints int64
}

// Options configure the manager.
type Options struct {
	// Budget is the DS memory in bytes (the paper varies 32-128 MB).
	// Default 64 MB.
	Budget int64
	// Metrics is the registry the manager's counters and gauges are
	// published on (mqsched_datastore_*); nil publishes nowhere.
	Metrics *metrics.Registry
	// Policy selects the admission/eviction behaviour (default PolicyLRU,
	// the paper's cache-everything/evict-by-recency data store).
	Policy Policy
	// MaterializeThreshold is the number of lookup probes a hot cell must
	// accumulate before it may emit a materialization hint under PolicyCost
	// (default 16; negative disables materialization).
	MaterializeThreshold int
	// MaterializeCell is the hot-region accounting cell side in base pixels
	// (default 8192).
	MaterializeCell int64
	// MaterializeMaxBytes caps the output size of a hinted parent aggregate
	// (default Budget/4).
	MaterializeMaxBytes int64
}

// dsMetrics are the manager's counters, each event counted here once: Stats
// reads them and publish names them on the registry. The two gauges follow
// Manager.used and len(Manager.entries), the state eviction works from.
type dsMetrics struct {
	lookupFull, lookupPartial, lookupMiss metrics.Counter
	reusedBytes                           metrics.Counter
	inserts, rejected, evictions          metrics.Counter
	swappedOutBytes                       metrics.Counter
	admitRejects, ghostHits, matHints     metrics.Counter
	residentBytes, entries                metrics.Gauge
}

// publish registers every series on reg (mqsched_datastore_*).
func (x *dsMetrics) publish(reg *metrics.Registry, policy Policy) {
	const lookups = "Data store lookups by outcome: full (an exact or fully covering result), partial, or miss."
	reg.PublishCounter("mqsched_datastore_lookups_total", lookups, &x.lookupFull, metrics.L("result", "full"))
	reg.PublishCounter("mqsched_datastore_lookups_total", lookups, &x.lookupPartial, metrics.L("result", "partial"))
	reg.PublishCounter("mqsched_datastore_lookups_total", lookups, &x.lookupMiss, metrics.L("result", "miss"))
	reg.Gauge("mqsched_datastore_policy_info",
		"Active cache policy: constant 1, labelled with the policy name.",
		metrics.L("policy", policy.String())).Set(1)
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
	reg.PublishCounter("mqsched_datastore_policy_ghost_hits_total",
		"Inserts whose predicate was found in the ghost list of rejected/evicted results.", &x.ghostHits)
	reg.PublishCounter("mqsched_datastore_policy_materialize_hints_total",
		"Proactive-materialization hints emitted for hot regions.", &x.matHints)
	reg.PublishGauge("mqsched_datastore_resident_bytes",
		"Bytes currently stored.", &x.residentBytes)
	reg.PublishGauge("mqsched_datastore_entries",
		"Entries currently stored.", &x.entries)
}

// Manager is the data store manager.
type Manager struct {
	app  query.App
	opts Options

	// OnEvict, if set, is called (with the manager's lock held) whenever an
	// entry is swapped out. The callback must not call back into the
	// manager.
	OnEvict func(*Entry)

	mx dsMetrics

	mu      sync.Mutex
	nextID  int64
	useTick int64
	used    int64
	entries map[int64]*Entry
	trees   map[string]*spatial.Tree[*Entry] // per-dataset spatial index

	// PolicyCost state. clock is the GDSF aging term: it rises to the
	// evicted priority on each eviction and to the refused priority on each
	// admission reject, so entries inserted later start ahead of long-idle
	// survivors and a run of rejects cannot freeze the cache. costPerByte
	// is an EWMA of observed
	// recompute cost per stored byte, the estimate for inserts that arrive
	// without a measurement (e.g. results answered entirely from cache).
	clock       float64
	costPerByte float64
	ghosts      *ghostList
	agg         query.Aggregator
	hot         map[cellKey]*hotCell
	hints       []query.Meta
}

// InsertInfo carries the value-model inputs of one insert.
type InsertInfo struct {
	// CostSeconds is the observed cost of producing the blob on the
	// runtime's clock (the server reports execution time minus producer
	// stalls). Non-positive means unknown; the manager falls back to its
	// cost-per-byte estimate.
	CostSeconds float64
	// Materialized marks a proactively materialized parent aggregate: it
	// bypasses the admission comparison (the cache asked for it) and starts
	// with a reuse expectation, so it is not evicted before first use.
	Materialized bool
	// Owner is whatever the caller wants back when the entry is evicted (the
	// server passes the scheduling-graph node the result belongs to); the
	// manager only carries it onto Entry.Owner.
	Owner any
}

// ghostCap bounds the ghost list of rejected/evicted predicates under
// PolicyCost.
const ghostCap = 2048

// New returns a data store for results of app.
func New(app query.App, opts Options) *Manager {
	if opts.Budget == 0 {
		opts.Budget = 64 << 20
	}
	if opts.MaterializeThreshold == 0 {
		opts.MaterializeThreshold = 16
	}
	if opts.MaterializeCell == 0 {
		opts.MaterializeCell = 8192
	}
	if opts.MaterializeMaxBytes == 0 {
		opts.MaterializeMaxBytes = opts.Budget / 4
	}
	m := &Manager{
		app:     app,
		opts:    opts,
		entries: map[int64]*Entry{},
		trees:   map[string]*spatial.Tree[*Entry]{},
	}
	m.mx.publish(opts.Metrics, opts.Policy)
	if opts.Policy == PolicyCost {
		m.ghosts = newGhostList(ghostCap)
		if agg, ok := app.(query.Aggregator); ok && opts.MaterializeThreshold > 0 {
			m.agg = agg
			m.hot = map[cellKey]*hotCell{}
		}
	}
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
		Inserts:          x.inserts.Value(),
		Rejected:         x.rejected.Value(),
		Evictions:        x.evictions.Value(),
		Lookups:          hits + x.lookupMiss.Value(),
		LookupHits:       hits,
		BytesStored:      x.residentBytes.Value(),
		ReusedBytes:      x.reusedBytes.Value(),
		AdmitRejects:     x.admitRejects.Value(),
		GhostHits:        x.ghostHits.Value(),
		MaterializeHints: x.matHints.Value(),
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
	m.mx.inserts.Inc()
	m.mx.residentBytes.Set(m.used)
	m.mx.entries.Set(int64(len(m.entries)))
	return e
}

// insertCostLocked is the PolicyCost insert path: estimate the newcomer's
// benefit, plan the evictions its admission would require, and admit only
// when it beats the displaced entries (materialized parents always admit
// into evictable space).
func (m *Manager) insertCostLocked(blob *query.Blob, info InsertInfo) *Entry {
	size := max(blob.Size, 1)
	cost := info.CostSeconds
	if cost > 0 {
		// Feed the measurement into the per-byte estimate used for inserts
		// that arrive without one.
		obs := cost / float64(size)
		if m.costPerByte == 0 {
			m.costPerByte = obs
		} else {
			m.costPerByte += 0.2 * (obs - m.costPerByte)
		}
	} else {
		cost = m.costPerByte * float64(size)
	}

	key := blob.Meta.String()
	var hits int64
	if m.ghosts != nil {
		if ghostHits, ok := m.ghosts.take(key); ok {
			hits = ghostHits
			m.mx.ghostHits.Inc()
		}
	}
	if info.Materialized && hits < 2 {
		hits = 2
	}
	benefit := float64(hits+1) * cost / float64(size)

	prio := m.clock + benefit
	if need := m.used + blob.Size - m.opts.Budget; need > 0 {
		victims, freed, maxPrio := m.victimPlanLocked(need)
		if freed < need {
			// The budget is too pinned; same outcome as LRU.
			m.mx.rejected.Inc()
			m.ghostAddLocked(key, hits+1)
			return nil
		}
		if !info.Materialized && maxPrio > prio {
			// Admission control: the newcomer's aged priority does not reach
			// the entries it would displace. The reject itself ages the
			// cache (a "virtual eviction" — the clock rises to the refused
			// priority), so a run of rejects cannot freeze the cache: stale
			// survivors fall behind the clock and newcomers win within a few
			// rounds unless residents keep re-earning their keep through
			// projections. Losses are ghost-tracked so a reproduced result
			// carries its history into the next attempt.
			m.clock = prio
			m.mx.admitRejects.Inc()
			m.ghostAddLocked(key, hits+1)
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

func (m *Manager) ghostAddLocked(key string, hits int64) {
	if m.ghosts != nil {
		m.ghosts.add(key, hits)
	}
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
	e.evicted = true
	m.mx.evictions.Inc()
	m.mx.swappedOutBytes.Add(e.Blob.Size)
	m.mx.residentBytes.Set(m.used)
	m.mx.entries.Set(int64(len(m.entries)))
	if m.opts.Policy == PolicyCost {
		// Remember the evicted predicate: if the result is reproduced it
		// carries its reuse history into the admission decision.
		m.ghostAddLocked(e.Blob.Meta.String(), e.hits+1)
	}
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
		m.observeProbeLocked(dst, false)
		return nil
	}
	var out []Candidate
	for _, e := range tree.Search(dst.Region(), nil) {
		ov := m.app.Overlap(e.Blob.Meta, dst)
		if ov < minOverlap {
			continue
		}
		out = append(out, Candidate{Entry: e, Overlap: ov})
	}
	if len(out) == 0 {
		m.mx.lookupMiss.Inc()
		m.observeProbeLocked(dst, false)
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i], out[j]
		ei := m.app.Cmp(ci.Entry.Blob.Meta, dst)
		ej := m.app.Cmp(cj.Entry.Blob.Meta, dst)
		if ei != ej {
			return ei
		}
		if ci.Overlap != cj.Overlap {
			return ci.Overlap > cj.Overlap
		}
		return ci.Entry.ID < cj.Entry.ID
	})
	m.useTick++
	for _, c := range out {
		c.Entry.pins++
		c.Entry.lastUse = m.useTick
	}
	full := m.app.Cmp(out[0].Entry.Blob.Meta, dst) || out[0].Overlap >= 1
	if full {
		m.mx.lookupFull.Inc()
	} else {
		m.mx.lookupPartial.Inc()
	}
	m.observeProbeLocked(dst, full)
	return out
}

// observeProbeLocked feeds the hot-region tracker (PolicyCost with an
// Aggregator application): cells seeing many probes that the cache cannot
// fully answer promote a parent-aggregate materialization hint.
func (m *Manager) observeProbeLocked(dst query.Meta, full bool) {
	if m.hot == nil {
		return
	}
	r := dst.Region()
	cell := m.opts.MaterializeCell
	key := cellKey{
		ds: dst.Dataset(),
		cx: geom.FloorDiv((r.X0+r.X1)/2, cell),
		cy: geom.FloorDiv((r.Y0+r.Y1)/2, cell),
	}
	c := m.hot[key]
	if c == nil {
		c = &hotCell{}
		m.hot[key] = c
	}
	c.observe(dst, full)
	if c.probes >= m.opts.MaterializeThreshold {
		if 2*c.fulls < c.probes {
			m.hintLocked(c)
		}
		delete(m.hot, key)
	}
}

// hintCap bounds pending materialization hints; excess cells re-trigger
// after another probe round.
const hintCap = 8

// hintLocked asks the application for a parent predicate covering the hot
// cell and queues it as a materialization hint, unless it is oversized,
// already resident, or already pending.
func (m *Manager) hintLocked(c *hotCell) {
	if len(m.hints) >= hintCap {
		return
	}
	parent, ok := m.agg.ParentMeta(c.samples, c.union)
	if !ok {
		return
	}
	if m.app.QOutSize(parent) > m.opts.MaterializeMaxBytes {
		return
	}
	if tree := m.trees[parent.Dataset()]; tree != nil {
		for _, e := range tree.Search(parent.Region(), nil) {
			if m.app.Cmp(e.Blob.Meta, parent) || m.app.Overlap(e.Blob.Meta, parent) >= 1 {
				return // an equal or covering result is already cached
			}
		}
	}
	for _, h := range m.hints {
		if m.app.Cmp(h, parent) {
			return
		}
	}
	m.hints = append(m.hints, parent)
	m.mx.matHints.Inc()
}

// TakeHints drains the pending materialization hints: predicates of parent
// aggregates the cache wants computed. The server submits them as ordinary
// queries (rate-limited on its side); their results insert as Materialized.
func (m *Manager) TakeHints() []query.Meta {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hints
	m.hints = nil
	return h
}

// LookupTraced is Lookup recorded as a span under sp (subsystem
// "datastore", op "lookup") with the candidate count and bytes handed out.
// With an inert context it is exactly Lookup.
func (m *Manager) LookupTraced(sp trace.SpanContext, dst query.Meta, minOverlap float64) []Candidate {
	if !sp.Active() {
		return m.Lookup(dst, minOverlap)
	}
	span := sp.Child(trace.SubDatastore, trace.OpLookup)
	out := m.Lookup(dst, minOverlap)
	var bytes int64
	var best float64
	for _, c := range out {
		bytes += c.Entry.Blob.Size
		if c.Overlap > best {
			best = c.Overlap
		}
	}
	span.Finish(trace.I64(trace.AttrCandidates, int64(len(out))),
		trace.I64(trace.AttrCandidateBytes, bytes), trace.F64(trace.AttrBestOverlap, best))
	return out
}

// Touch refreshes an entry's recency (used when a result is returned
// directly to a client).
func (m *Manager) Touch(e *Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !e.evicted {
		m.useTick++
		e.lastUse = m.useTick
		if m.opts.Policy == PolicyCost {
			e.prio = m.clock + e.benefit()
		}
	}
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
