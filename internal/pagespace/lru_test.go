package pagespace

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

// TestBudgetKeepsTheMostRecentPages: ten misses through a four-page budget
// leave exactly the last four pages resident, after six evictions in LRU
// order.
func TestBudgetKeepsTheMostRecentPages(t *testing.T) {
	pageBytes := int64(147 * 147 * 3)
	eng, r, m, _, farm := rig(4*pageBytes, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		for p := 0; p < 10; p++ {
			m.ReadPage(ctx, "d", p)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if used := m.Used(); used != 4*pageBytes {
		t.Fatalf("used %d, want %d", used, 4*pageBytes)
	}
	for p := 0; p < 6; p++ {
		if m.Resident("d", p) {
			t.Errorf("page %d should have been evicted (LRU)", p)
		}
	}
	for p := 6; p < 10; p++ {
		if !m.Resident("d", p) {
			t.Errorf("page %d should be resident", p)
		}
	}
	if ev := m.Stats().Evictions; ev != 6 {
		t.Fatalf("evictions = %d, want 6", ev)
	}
	if farm.Stats().Reads != 10 {
		t.Fatalf("farm reads = %d", farm.Stats().Reads)
	}
}

// TestCoalescingTwoFetchesInFlight: two in-flight fetches for distinct
// pages under the one lock, each with coalesced waiters, are tracked
// independently.
func TestCoalescingTwoFetchesInFlight(t *testing.T) {
	eng, r, m, _, farm := rig(32<<20, true)
	for i := 0; i < 3; i++ {
		for _, p := range []int{0, 1} {
			p := p
			r.Spawn(fmt.Sprintf("q%d-%d", p, i), func(ctx rt.Ctx) {
				m.ReadPage(ctx, "d", p)
			})
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 2 {
		t.Fatalf("farm reads = %d, want 2 (one per page)", got)
	}
	st := m.Stats()
	if st.InflightWaits != 4 {
		t.Fatalf("InflightWaits = %d, want 4", st.InflightWaits)
	}
	if st.Misses != 2 {
		t.Fatalf("Misses = %d, want 2", st.Misses)
	}
}

func TestCoalescedWaiterRetriesAfterEviction(t *testing.T) {
	// Budget below one page on a 2-disk farm. Two prefetches run in
	// parallel and publish at the same instant; the second publication
	// evicts the first page before its coalesced waiter gets to run, so the
	// waiter must retry from the top and issue its own fetch.
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*20, 147*20, 3, 147)
	farm := disk.NewFarm(r, disk.Config{
		Disks: 2, Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 100})
	m.prefetchLimit = -1
	var got int64
	r.Spawn("hints", func(ctx rt.Ctx) {
		m.StartFetch(l, 0) // striped onto disk 0
		m.StartFetch(l, 1) // striped onto disk 1: completes simultaneously
	})
	r.Spawn("reader", func(ctx rt.Ctx) {
		got = int64(len(m.ReadPage(ctx, "d", 0)))
		_ = got
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.InflightWaits == 0 {
		t.Fatal("reader should have coalesced onto the prefetch")
	}
	// Page 0 was fetched by the prefetch and again by the retrying reader.
	if reads := farm.Stats().Reads; reads != 3 {
		t.Fatalf("farm reads = %d, want 3 (prefetch x2 + retry)", reads)
	}
	if st.Evictions == 0 {
		t.Fatal("no eviction: the retry path was not exercised")
	}
}

func TestPrefetchCapDropsExcessHints(t *testing.T) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*20, 147*20, 3, 147)
	farm := disk.NewFarm(r, disk.Config{
		Disks: 1, Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 32 << 20}) // default cap: 2×1 disk
	r.Spawn("hints", func(ctx rt.Ctx) {
		for p := 0; p < 6; p++ {
			m.StartFetch(l, p)
		}
		// Once the in-flight fetches drain, new hints are accepted again.
		ctx.Sleep(10 * time.Millisecond)
		m.StartFetch(l, 10)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Prefetches != 3 {
		t.Fatalf("Prefetches = %d, want 3 (2 up front + 1 after drain)", st.Prefetches)
	}
	if st.PrefetchDrops != 4 {
		t.Fatalf("PrefetchDrops = %d, want 4", st.PrefetchDrops)
	}
	if farm.Stats().Reads != 3 {
		t.Fatalf("farm reads = %d", farm.Stats().Reads)
	}
}

func TestPrefetchCapDoesNotStrandReaders(t *testing.T) {
	// A dropped hint must leave no half-registered entry: a foreground read
	// of the dropped page proceeds as a normal miss.
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*20, 147*20, 3, 147)
	farm := disk.NewFarm(r, disk.Config{
		Disks: 1, Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 32 << 20})
	m.prefetchLimit = 1
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetch(l, 0)
		m.StartFetch(l, 1) // dropped at the cap
		m.ReadPage(ctx, "d", 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PrefetchDrops != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !m.Resident("d", 1) {
		t.Fatal("dropped-hint page should be resident after the foreground read")
	}
}

// TestRealRuntimeEvictionStress: eight goroutines read, batch-read, prefetch
// and batch-prefetch random pages through a three-page budget on the real
// runtime, so evictions, entry reuse and the prefetch cap overlap. Every
// payload must be the generator's, and the list must be whole afterwards.
// CI runs it under the race detector, twenty times over.
func TestRealRuntimeEvictionStress(t *testing.T) {
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
	l := dataset.New("d", 16*8, 16*8, 3, 16) // 64 pages of 768 B
	gen := func(l *dataset.Layout, page int) []byte {
		b := make([]byte, l.PageBytes(page))
		for i := range b {
			b[i] = byte(page*13 + i)
		}
		return b
	}
	farm := disk.NewFarm(r, disk.Config{Disks: 2}, gen)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 3 * l.FullPageBytes()})
	check := func(page int, data []byte) {
		if !bytes.Equal(data, gen(l, page)) {
			t.Errorf("page %d: wrong payload", page)
		}
	}
	for i := 0; i < 8; i++ {
		i := i
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 200; n++ {
				p := rng.Intn(l.NumPages())
				switch rng.Intn(5) {
				case 0:
					pages := []int{p, rng.Intn(l.NumPages()), p}
					for j, data := range m.ReadPages(ctx, l, pages) {
						check(pages[j], data)
					}
				case 1:
					m.StartFetch(l, p)
				case 2:
					m.StartFetchBatch(l, []int{p, rng.Intn(l.NumPages()), p})
				default:
					check(p, m.ReadPage(ctx, "d", p))
				}
			}
		})
	}
	r.Wait()
	if m.Stats().Evictions == 0 {
		t.Fatal("no eviction: the budget never bound")
	}
	checkInvariants(t, m)
}

// checkInvariants checks what eviction relies on: list links consistent
// both ways, every listed entry resident and in the page table and every
// resident table entry listed, no free entry in the page table, and the
// resident totals equal to the list's sums. Call it with no operation
// running.
func checkInvariants(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var heldBytes, heldPages int64
	var prev *pageEntry
	for e := m.head; e != nil && heldPages <= int64(m.pages.n); prev, e = e, e.next {
		if e.prev != prev {
			t.Errorf("page %v's prev link is broken", e.key)
		}
		if !e.resident || m.pages.get(e.key) != e {
			t.Errorf("listed page %v is not a resident page-table entry", e.key)
		}
		heldBytes += e.size
		heldPages++
	}
	if m.tail != prev {
		t.Error("the tail is not the last listed page")
	}
	free := map[*pageEntry]bool{}
	for e := m.free; e != nil; e = e.next {
		free[e] = true
	}
	var resident, entries int64
	for _, s := range m.pages.slots {
		e := s.e
		if e == nil {
			continue
		}
		entries++
		if s.key != e.key || m.pages.get(s.key) != e {
			t.Errorf("page %v sits under key %v, or its probe cannot reach it", e.key, s.key)
		}
		if free[e] {
			t.Errorf("page %v is both free and in the page table", s.key)
		}
		if e.resident {
			resident++
		}
	}
	if entries != int64(m.pages.n) {
		t.Errorf("the page table counts %d entries and holds %d", m.pages.n, entries)
	}
	if resident != heldPages {
		t.Errorf("%d resident page-table entries, %d listed", resident, heldPages)
	}
	if m.residentBytes != heldBytes {
		t.Errorf("residentBytes = %d, the list holds %d", m.residentBytes, heldBytes)
	}
	if m.residentPages != heldPages {
		t.Errorf("residentPages = %d, the list holds %d", m.residentPages, heldPages)
	}
}
