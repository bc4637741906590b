package pagespace

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

// The striped manager must behave exactly like the single-lock one under
// sequential access: one global byte budget, global LRU eviction order,
// per-page coalescing — with shard locks as an invisible implementation
// detail.

func TestGlobalBudgetAcrossShards(t *testing.T) {
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
	// Pages land on many shards, yet the budget binds globally: only the
	// last 4 pages survive, in exact LRU order.
	if used := m.Used(); used != 4*pageBytes {
		t.Fatalf("used %d, want %d", used, 4*pageBytes)
	}
	for p := 0; p < 6; p++ {
		if m.Resident("d", p) {
			t.Errorf("page %d should have been evicted (global LRU)", p)
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

// sameShardPage finds a page != p0 that maps onto p0's shard (the manager is
// lock-striped by page hash; tests that need intra-shard concurrency pick
// colliding pages explicitly).
func sameShardPage(m *Manager, ds string, p0, max int) int {
	target := m.shardFor(pageKey{ds, p0})
	for p := 0; p < max; p++ {
		if p != p0 && m.shardFor(pageKey{ds, p}) == target {
			return p
		}
	}
	return -1
}

func TestCoalescingWithinShard(t *testing.T) {
	eng, r, m, _, farm := rig(32<<20, true)
	p2 := sameShardPage(m, "d", 0, 400)
	if p2 < 0 {
		t.Fatal("no colliding page found")
	}
	// Two in-flight fetches for distinct pages of the same shard, each with
	// coalesced waiters: the shard tracks both independently.
	for i := 0; i < 3; i++ {
		for _, p := range []int{0, p2} {
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
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 100, PrefetchLimit: -1})
	var got int64
	r.Spawn("hints", func(ctx rt.Ctx) {
		m.StartFetch("d", 0) // striped onto disk 0
		m.StartFetch("d", 1) // striped onto disk 1: completes simultaneously
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
			m.StartFetch("d", p)
		}
		// Once the in-flight fetches drain, new hints are accepted again.
		ctx.Sleep(10 * time.Millisecond)
		m.StartFetch("d", 10)
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
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 32 << 20, PrefetchLimit: 1})
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetch("d", 0)
		m.StartFetch("d", 1) // dropped at the cap
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

// TestShardForIsFNV32a: shardFor hashes inline and must keep the mapping
// DESIGN §7 documents, hash/fnv's FNV-32a over the dataset name and then the
// page number's four low bytes, little-endian, for any key.
func TestShardForIsFNV32a(t *testing.T) {
	_, _, m, _, _ := rig(32<<20, true)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		name := make([]byte, rng.Intn(16))
		for j := range name {
			name[j] = byte(rng.Intn(256))
		}
		page := int(int32(rng.Uint32()))
		h := fnv.New32a()
		h.Write(name)
		h.Write([]byte{byte(page), byte(page >> 8), byte(page >> 16), byte(page >> 24)})
		want := h.Sum32() % lockStripes
		if m.shardFor(pageKey{string(name), page}) != &m.shards[want] {
			t.Fatalf("page %d of %q is not on shard %d", page, name, want)
		}
	}
}

// TestRealRuntimeEvictionStress: eight goroutines read, batch-read and
// prefetch random pages through a three-page budget on the real runtime, so
// evictions, entry reuse and the lock-free reads of tail stamps overlap.
// Every payload must be the generator's, and the shards must be whole
// afterwards. CI runs it under the race detector, twenty times over.
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
				switch rng.Intn(4) {
				case 0:
					pages := []int{p, rng.Intn(l.NumPages()), p}
					for j, data := range m.ReadPages(ctx, "d", pages) {
						check(pages[j], data)
					}
				case 1:
					m.StartFetch("d", p)
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

// checkInvariants locks each shard in turn and checks what eviction relies
// on: list links consistent both ways with touches falling from head to
// tail, the stored tail stamp equal to the tail's touch, every listed entry
// resident and in the page table and every resident table entry listed, no
// free entry in the page table, and the resident counters equal to the
// lists' totals. Call it with no operation running.
func checkInvariants(t *testing.T, m *Manager) {
	t.Helper()
	var heldBytes, heldPages int64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		listed := 0
		var prev *pageEntry
		for e := sh.head; e != nil && listed <= len(sh.pages); prev, e = e, e.next {
			if e.prev != prev {
				t.Errorf("shard %d: page %v's prev link is broken", i, e.key)
			}
			if prev != nil && prev.touch <= e.touch {
				t.Errorf("shard %d: page %v (touch %d) is listed after a page touched at %d", i, e.key, e.touch, prev.touch)
			}
			if !e.resident || sh.pages[e.key] != e {
				t.Errorf("shard %d: listed page %v is not a resident page-table entry", i, e.key)
			}
			heldBytes += e.size
			heldPages++
			listed++
		}
		if sh.tail != prev {
			t.Errorf("shard %d: the tail is not the last listed page", i)
		}
		want := int64(math.MaxInt64)
		if sh.tail != nil {
			want = sh.tail.touch
		}
		if got := sh.tailTouch.Load(); got != want {
			t.Errorf("shard %d: tail stamp %d, tail touched at %d", i, got, want)
		}
		free := map[*pageEntry]bool{}
		for e := sh.free; e != nil; e = e.next {
			free[e] = true
		}
		resident := 0
		for k, e := range sh.pages {
			if free[e] {
				t.Errorf("shard %d: page %v is both free and in the page table", i, k)
			}
			if e.resident {
				resident++
			}
		}
		if resident != listed {
			t.Errorf("shard %d: %d resident page-table entries, %d listed", i, resident, listed)
		}
		sh.mu.Unlock()
	}
	if got := m.residentBytes.Load(); got != heldBytes {
		t.Errorf("residentBytes = %d, the lists hold %d", got, heldBytes)
	}
	if got := m.residentPages.Load(); got != heldPages {
		t.Errorf("residentPages = %d, the lists hold %d", got, heldPages)
	}
}
