package datastore

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/testapp"
)

// owned is a blob the way the server makes one: fresh bytes with one owner.
func owned(app *testapp.App, r geom.Rect) *query.Blob {
	b := blob(app, r)
	b.Data = make([]byte, b.Size)
	b.Buf = &query.Buf{Owners: 1}
	return b
}

// TestFreeListTakesExactSizes: a buffer reaches the free list once its entry
// is evicted and its owner has released it, and only an output of exactly
// its size takes it back.
func TestFreeListTakesExactSizes(t *testing.T) {
	m, app := newRig(1 << 20)
	b := owned(app, geom.R(0, 0, 100, 100))
	e := m.Insert(b)
	m.Release(b)
	if st := m.Stats(); st.FreeBytes != 0 {
		t.Fatalf("FreeBytes = %d while an entry holds the buffer", st.FreeBytes)
	}
	m.Drop(e)
	if st := m.Stats(); st.FreeBytes != b.Size {
		t.Fatalf("FreeBytes = %d after the last holder let go, want %d", st.FreeBytes, b.Size)
	}
	if got := m.TakeFree(b.Size - 1); got != nil {
		t.Fatalf("TakeFree(%d) returned a %d-byte buffer", b.Size-1, len(got))
	}
	got := m.TakeFree(b.Size)
	if unsafe.SliceData(got) != unsafe.SliceData(b.Data) || int64(len(got)) != b.Size {
		t.Fatal("TakeFree did not return the freed buffer")
	}
	if st := m.Stats(); st.RecycledBuffers != 1 || st.FreeBytes != 0 {
		t.Errorf("RecycledBuffers, FreeBytes = %d, %d, want 1, 0", st.RecycledBuffers, st.FreeBytes)
	}
	if got := m.TakeFree(b.Size); got != nil {
		t.Error("one freed buffer was taken twice")
	}
}

// TestReleaseWithoutHoldPanics: an owner count never goes negative.
func TestReleaseWithoutHoldPanics(t *testing.T) {
	m, app := newRig(1 << 20)
	b := owned(app, geom.R(0, 0, 10, 10))
	m.Release(b)
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	m.Release(b)
}

// TestRecyclingKeepsBudgetAndEvictionOrder replays random computes, exact
// repeats and releases of three output sizes against two managers: one whose
// blobs carry bytes and a holder count, one whose blobs carry neither. After
// every step held + free fits the budget, held is the distinct buffers the
// entries hold, and no free buffer is held by anyone. The two managers evict
// the same entries in the same order: recycling never changes residency.
func TestRecyclingKeepsBudgetAndEvictionOrder(t *testing.T) {
	const budget = 10_000
	m, app := newRig(budget)
	bare, _ := newRig(budget)
	var evicted, bareEvicted []int64
	m.OnEvict = func(e *Entry) { evicted = append(evicted, e.ID) }
	bare.OnEvict = func(e *Entry) { bareEvicted = append(bareEvicted, e.ID) }

	rng := rand.New(rand.NewSource(1))
	var live []*query.Blob // results not yet released
	for step := 0; step < 5000; step++ {
		switch k := rng.Intn(10); {
		case k < 4: // a computed output: recycled bytes if any fit
			side := []int64{30, 40, 50}[rng.Intn(3)]
			x := rng.Int63n(900)
			r := geom.R(x, 0, x+side, side)
			b := blob(app, r)
			if b.Data = m.TakeFree(b.Size); b.Data == nil {
				b.Data = make([]byte, b.Size)
			}
			b.Buf = &query.Buf{Owners: 1}
			m.Insert(b)
			bare.Insert(blob(app, r))
			live = append(live, b)
		case k < 7: // an exact repeat of a resident entry
			ids := residentIDs(m)
			if len(ids) == 0 {
				continue
			}
			src := m.entries[ids[rng.Intn(len(ids))]].Blob
			m.Hold(src)
			b := &query.Blob{Meta: src.Meta, Size: src.Size, Data: src.Data, Buf: src.Buf}
			m.Insert(b)
			bare.Insert(blob(app, src.Meta.Region()))
			live = append(live, b)
		default: // a caller releases a result
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			m.Release(live[i])
			live = slices.Delete(live, i, i+1)
		}
		checkRecycling(t, m, live)
		if t.Failed() {
			t.Fatalf("after step %d", step)
		}
	}
	if !slices.Equal(evicted, bareEvicted) || !slices.Equal(residentIDs(m), residentIDs(bare)) {
		t.Fatal("recycling changed which entries were evicted")
	}
	if st := m.Stats(); st.RecycledBuffers == 0 || len(evicted) == 0 {
		t.Fatalf("RecycledBuffers %d, evictions %d: the replay does not recycle under eviction", st.RecycledBuffers, len(evicted))
	}
}

func residentIDs(m *Manager) []int64 {
	var ids []int64
	for id := range m.entries {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkRecycling checks the free list's invariants against the entries and
// the results still held.
func checkRecycling(t *testing.T, m *Manager, live []*query.Blob) {
	t.Helper()
	inUse := map[*byte]bool{}
	var held int64
	for _, e := range m.entries {
		p := unsafe.SliceData(e.Blob.Data)
		if !inUse[p] {
			held += e.Blob.Size
		}
		inUse[p] = true
	}
	for _, b := range live {
		inUse[unsafe.SliceData(b.Data)] = true
	}
	var free int64
	for size, list := range m.freeBufs {
		for _, data := range list {
			if int64(len(data)) != size {
				t.Errorf("a %d-byte buffer is listed under %d", len(data), size)
			}
			if inUse[unsafe.SliceData(data)] {
				t.Error("a buffer on the free list is still held")
			}
			free += size
		}
	}
	if m.held != held || m.free != free {
		t.Errorf("held, free = %d, %d, want %d, %d", m.held, m.free, held, free)
	}
	if held+free > m.opts.Budget {
		t.Errorf("held %d + free %d over the budget %d", held, free, m.opts.Budget)
	}
}
