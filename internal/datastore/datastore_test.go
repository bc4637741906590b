package datastore

import (
	"sync"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/testapp"
)

func newRig(budget int64) (*Manager, *testapp.App) {
	l := dataset.New("d", 1000, 1000, 1, 100)
	app := testapp.New(dataset.NewTable(l))
	return New(app, Options{Budget: budget}), app
}

func blob(app *testapp.App, r geom.Rect) *query.Blob {
	m := testapp.Meta{DS: "d", Rect: r}
	return &query.Blob{Meta: m, Size: app.QOutSize(m)}
}

func TestInsertAndLookup(t *testing.T) {
	m, app := newRig(1 << 20)
	e := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	if e == nil {
		t.Fatal("Insert returned nil")
	}
	if m.Len() != 1 || m.Used() != 100*100 {
		t.Fatalf("Len=%d Used=%d", m.Len(), m.Used())
	}

	// Overlapping probe finds it, pinned.
	cands := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(50, 50, 150, 150)}, 0)
	if len(cands) != 1 {
		t.Fatalf("Lookup found %d", len(cands))
	}
	if cands[0].Overlap != 0.25 {
		t.Fatalf("overlap = %v, want 0.25", cands[0].Overlap)
	}
	cands[0].Entry.Unpin()

	// Disjoint probe finds nothing.
	if got := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(500, 500, 600, 600)}, 0); got != nil {
		t.Fatalf("disjoint Lookup = %v", got)
	}
	// Unknown dataset finds nothing.
	if got := m.Lookup(testapp.Meta{DS: "other", Rect: geom.R(0, 0, 10, 10)}, 0); got != nil {
		t.Fatalf("unknown-ds Lookup = %v", got)
	}
}

func TestLookupOrdering(t *testing.T) {
	m, app := newRig(1 << 20)
	m.Insert(blob(app, geom.R(0, 0, 60, 100)))  // covers 60%
	m.Insert(blob(app, geom.R(0, 0, 100, 100))) // exact match
	m.Insert(blob(app, geom.R(0, 0, 30, 100)))  // covers 30%
	probe := testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}
	cands := m.Lookup(probe, 0)
	if len(cands) != 3 {
		t.Fatalf("found %d", len(cands))
	}
	// Exact match first, then by decreasing overlap.
	if !app.Cmp(cands[0].Entry.Meta(), probe) {
		t.Fatalf("first candidate not the exact match: %v", cands[0].Entry.Meta())
	}
	if cands[1].Overlap < cands[2].Overlap {
		t.Fatalf("candidates not sorted: %v then %v", cands[1].Overlap, cands[2].Overlap)
	}
	for _, c := range cands {
		c.Entry.Unpin()
	}
}

func TestMinOverlapFilter(t *testing.T) {
	m, app := newRig(1 << 20)
	m.Insert(blob(app, geom.R(0, 0, 10, 100))) // 10% of probe
	probe := testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}
	if got := m.Lookup(probe, 0.5); got != nil {
		t.Fatalf("minOverlap filter failed: %v", got)
	}
	got := m.Lookup(probe, 0.05)
	if len(got) != 1 {
		t.Fatalf("minOverlap 0.05 found %d", len(got))
	}
	got[0].Entry.Unpin()
}

func TestLRUEvictionAndHook(t *testing.T) {
	// Budget fits two 100x100 results.
	m, app := newRig(2 * 100 * 100)
	var evicted []*Entry
	m.OnEvict = func(e *Entry) { evicted = append(evicted, e) }

	e1 := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	e2 := m.Insert(blob(app, geom.R(100, 0, 200, 100)))
	// Touch e1 so e2 is LRU.
	m.Touch(e1)
	e3 := m.Insert(blob(app, geom.R(200, 0, 300, 100)))
	if e3 == nil {
		t.Fatal("third insert failed")
	}
	if len(evicted) != 1 || evicted[0] != e2 {
		t.Fatalf("evicted %v, want e2", evicted)
	}
	if !e2.Evicted() || e1.Evicted() || e3.Evicted() {
		t.Fatal("wrong eviction flags")
	}
	// The evicted entry no longer appears in lookups.
	if got := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(100, 0, 200, 100)}, 0); got != nil {
		t.Fatalf("evicted entry still found: %v", got)
	}
	if st := m.Stats(); st.Evictions != 1 || st.Inserts != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	m, app := newRig(2 * 100 * 100)
	m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	m.Insert(blob(app, geom.R(100, 0, 200, 100)))
	// Pin both via lookup.
	cands := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 200, 100)}, 0)
	if len(cands) != 2 {
		t.Fatalf("found %d", len(cands))
	}
	// No room and nothing evictable: insert must be rejected.
	if e := m.Insert(blob(app, geom.R(200, 0, 300, 100))); e != nil {
		t.Fatal("insert should fail with everything pinned")
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d", st.Rejected)
	}
	// After unpinning, insertion evicts and succeeds.
	for _, c := range cands {
		c.Entry.Unpin()
	}
	if e := m.Insert(blob(app, geom.R(200, 0, 300, 100))); e == nil {
		t.Fatal("insert should succeed after unpin")
	}
}

func TestOversizedResultRejected(t *testing.T) {
	m, app := newRig(100)
	if e := m.Insert(blob(app, geom.R(0, 0, 100, 100))); e != nil {
		t.Fatal("oversized insert should be rejected")
	}
	if st := m.Stats(); st.Rejected != 1 || st.Inserts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDrop(t *testing.T) {
	m, app := newRig(1 << 20)
	e := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	m.Drop(e)
	if m.Len() != 0 || !e.Evicted() {
		t.Fatal("Drop did not evict")
	}
	m.Drop(e) // idempotent
}

func TestDropPinnedPanics(t *testing.T) {
	m, app := newRig(1 << 20)
	m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	cands := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Drop(cands[0].Entry)
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	m, app := newRig(1 << 20)
	e := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Unpin()
}

func TestDefaultBudget(t *testing.T) {
	m, _ := newRig(0)
	if m.Budget() != 64<<20 {
		t.Fatalf("default budget = %d", m.Budget())
	}
}

func TestLookupStats(t *testing.T) {
	m, app := newRig(1 << 20)
	m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(500, 500, 510, 510)}, 0) // miss
	c := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 10, 10)}, 0)  // hit
	c[0].Entry.Unpin()
	st := m.Stats()
	if st.Lookups != 2 || st.LookupHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOnEvictNotFiredOnPinnedReject(t *testing.T) {
	m, app := newRig(100 * 100)
	m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	cands := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}, 0)
	hookFired := false
	m.OnEvict = func(*Entry) { hookFired = true }
	if e := m.Insert(blob(app, geom.R(100, 0, 200, 100))); e != nil {
		t.Fatal("insert into a fully pinned budget should fail")
	}
	if hookFired {
		t.Fatal("OnEvict fired for a rejected insert")
	}
	cands[0].Entry.Unpin()
}

func TestDropEvictedEntryIsNoOp(t *testing.T) {
	m, app := newRig(100 * 100)
	e1 := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	m.Insert(blob(app, geom.R(100, 0, 200, 100))) // displaces e1
	if !e1.Evicted() {
		t.Fatal("e1 should have been evicted under pressure")
	}
	before := m.Stats()
	m.Drop(e1) // already swapped out: must not double-count or touch state
	after := m.Stats()
	if after.Evictions != before.Evictions || m.Len() != 1 {
		t.Fatalf("Drop of evicted entry changed state: %+v -> %+v", before, after)
	}
}

func TestDuplicateMetaInsert(t *testing.T) {
	m, app := newRig(1 << 20)
	e1 := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	e2 := m.Insert(blob(app, geom.R(0, 0, 100, 100)))
	if e1 == nil || e2 == nil || e1.ID == e2.ID {
		t.Fatalf("duplicate insert: %v, %v", e1, e2)
	}
	// Both copies are stored and retrievable; exact matches tie-break by ID.
	if m.Len() != 2 || m.Used() != 2*100*100 {
		t.Fatalf("Len=%d Used=%d", m.Len(), m.Used())
	}
	cands := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}, 0)
	if len(cands) != 2 || cands[0].Entry.ID != e1.ID {
		t.Fatalf("lookup = %v", cands)
	}
	for _, c := range cands {
		c.Entry.Unpin()
	}
	// Dropping one copy leaves the other resident.
	m.Drop(e1)
	cands = m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}, 0)
	if len(cands) != 1 || cands[0].Entry.ID != e2.ID {
		t.Fatalf("lookup after drop = %v", cands)
	}
	cands[0].Entry.Unpin()
}

// lruModel is an independent reference implementation of the manager's LRU
// discipline: recency bumps on insert, lookup (all candidates), and touch;
// the victim is the lowest (lastUse, ID). The differential test below drives
// the manager and the model with the same operation stream and requires
// identical eviction orders — pinning today's behaviour so policy work
// cannot drift the default path.
type lruModel struct {
	tick    int64
	entries map[int64]*lruEntry
}

type lruEntry struct {
	id      int64
	size    int64
	rect    geom.Rect
	lastUse int64
}

func (m *lruModel) used() (sum int64) {
	for _, e := range m.entries {
		sum += e.size
	}
	return
}

func (m *lruModel) victim() *lruEntry {
	var v *lruEntry
	for _, e := range m.entries {
		if v == nil || e.lastUse < v.lastUse || (e.lastUse == v.lastUse && e.id < v.id) {
			v = e
		}
	}
	return v
}

func (m *lruModel) insert(id, size int64, r geom.Rect, budget int64) (evicted []int64) {
	for m.used()+size > budget {
		v := m.victim()
		delete(m.entries, v.id)
		evicted = append(evicted, v.id)
	}
	m.tick++
	m.entries[id] = &lruEntry{id: id, size: size, rect: r, lastUse: m.tick}
	return
}

func (m *lruModel) lookup(r geom.Rect) {
	m.tick++
	for _, e := range m.entries {
		if !e.rect.Intersect(r).Empty() {
			e.lastUse = m.tick
		}
	}
}

func TestLRUDifferentialEvictionOrder(t *testing.T) {
	const budget = 5 * 50 * 50 // five 50x50 tiles
	m, app := newRig(budget)
	model := &lruModel{entries: map[int64]*lruEntry{}}

	var gotOrder, wantOrder []int64
	m.OnEvict = func(e *Entry) { gotOrder = append(gotOrder, e.ID) }

	// A fixed pseudo-random walk over a 10x10 tile grid: mixed inserts and
	// lookups, deterministic in the multiplier.
	state := int64(12345)
	next := func(n int64) int64 {
		state = (state*6364136223846793005 + 1442695040888963407) % (1 << 31)
		if state < 0 {
			state = -state
		}
		return state % n
	}
	var nextID int64
	for i := 0; i < 400; i++ {
		x, y := next(10)*50, next(10)*50
		r := geom.R(x, y, x+50, y+50)
		if next(3) == 0 { // lookup, bumping every overlapping entry
			cands := m.Lookup(testapp.Meta{DS: "d", Rect: r}, 0)
			for _, c := range cands {
				c.Entry.Unpin()
			}
			model.lookup(r)
			continue
		}
		nextID++
		e := m.Insert(blob(app, r))
		if e == nil {
			t.Fatalf("op %d: insert rejected", i)
		}
		if e.ID != nextID {
			t.Fatalf("op %d: entry ID %d, model expects %d", i, e.ID, nextID)
		}
		wantOrder = append(wantOrder, model.insert(nextID, 50*50, r, budget)...)
	}
	if len(gotOrder) == 0 {
		t.Fatal("walk produced no evictions; widen it")
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("eviction counts differ: got %d, model %d", len(gotOrder), len(wantOrder))
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("eviction %d: got entry %d, model expects %d\ngot  %v\nwant %v",
				i, gotOrder[i], wantOrder[i], gotOrder, wantOrder)
		}
	}
}

// TestOwnerVisibleToOnEvict: the owner an insert names is on the entry before
// the entry can be evicted. Inserters race on a store that holds two results,
// so most entries are reclaimed by another goroutine's insert the moment
// their own returns — the window in which a caller registering the owner
// after Insert (the server's old side map) had not done so yet.
func TestOwnerVisibleToOnEvict(t *testing.T) {
	m, app := newRig(2 * 100 * 100)
	var evicted int64 // written under the manager's lock, which OnEvict holds
	m.OnEvict = func(e *Entry) {
		evicted++
		if e.Owner != any(e.Blob) {
			t.Errorf("entry %d evicted with owner %v, want its blob %p", e.ID, e.Owner, e.Blob)
		}
	}
	const inserters, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				b := blob(app, geom.R(g*100, i%9*100, g*100+100, i%9*100+100))
				if e := m.InsertWith(b, InsertInfo{Owner: b}); e == nil || e.Owner != any(b) {
					t.Errorf("insert of %v: entry %+v", b.Meta, e)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if want := int64(inserters*each - m.Len()); evicted != want || m.Len() > 2 {
		t.Fatalf("%d evictions seen by OnEvict with %d entries resident, want %d", evicted, m.Len(), want)
	}
}
