package pagespace

import (
	"fmt"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

// rig builds a simulated PS over a 1-disk farm with flat 1ms service. The
// prefetch cap is lifted (the default of 2× spindles would throttle the
// StartFetch tests on a 1-disk farm); TestPrefetchCap exercises the cap.
func rig(budget int64, dedup bool) (*sim.Engine, *rt.SimRuntime, *Manager, *dataset.Layout, *disk.Farm) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*20, 147*20, 3, 147) // 400 pages of 64827B
	farm := disk.NewFarm(r, disk.Config{
		Disks: 1, Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: budget, DisableDedup: !dedup})
	m.prefetchLimit = -1
	return eng, r, m, l, farm
}

func TestHitAvoidsSecondRead(t *testing.T) {
	eng, r, m, _, farm := rig(32<<20, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.ReadPage(ctx, "d", 7)
		m.ReadPage(ctx, "d", 7)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 1 {
		t.Fatalf("farm reads = %d, want 1", got)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !m.Resident("d", 7) {
		t.Fatal("page should be resident")
	}
}

func TestInflightDedup(t *testing.T) {
	eng, r, m, _, farm := rig(32<<20, true)
	var done []time.Duration
	for i := 0; i < 5; i++ {
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			m.ReadPage(ctx, "d", 3)
			done = append(done, ctx.Now())
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 1 {
		t.Fatalf("farm reads = %d, want 1 (dedup)", got)
	}
	st := m.Stats()
	if st.InflightWaits != 4 {
		t.Fatalf("InflightWaits = %d, want 4", st.InflightWaits)
	}
	// All five complete when the single fetch completes.
	for _, d := range done {
		if d != time.Millisecond {
			t.Fatalf("completion times %v", done)
		}
	}
}

func TestDedupDisabledDuplicatesIO(t *testing.T) {
	eng, r, m, _, farm := rig(32<<20, false)
	for i := 0; i < 5; i++ {
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			m.ReadPage(ctx, "d", 3)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 5 {
		t.Fatalf("farm reads = %d, want 5 (no dedup)", got)
	}
}

func TestLRUEviction(t *testing.T) {
	pageBytes := int64(147 * 147 * 3)
	// Budget for exactly 3 pages.
	eng, r, m, _, farm := rig(3*pageBytes, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.ReadPage(ctx, "d", 0)
		m.ReadPage(ctx, "d", 1)
		m.ReadPage(ctx, "d", 2)
		m.ReadPage(ctx, "d", 0) // touch 0: now 1 is LRU
		m.ReadPage(ctx, "d", 3) // evicts 1
		if m.Resident("d", 1) {
			t.Error("page 1 should have been evicted")
		}
		if !m.Resident("d", 0) || !m.Resident("d", 2) || !m.Resident("d", 3) {
			t.Error("pages 0,2,3 should be resident")
		}
		m.ReadPage(ctx, "d", 1) // miss again
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 5 {
		t.Fatalf("farm reads = %d, want 5", got)
	}
	if m.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", m.Stats().Evictions)
	}
	if m.Used() > m.Budget() {
		t.Fatalf("used %d > budget %d", m.Used(), m.Budget())
	}
}

func TestTinyBudgetStillServes(t *testing.T) {
	// Budget smaller than one page: every read is a miss but none fails.
	eng, r, m, _, _ := rig(100, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		for p := 0; p < 5; p++ {
			m.ReadPage(ctx, "d", p)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Used() > 147*147*3 {
		t.Fatalf("used %d, want at most one page", m.Used())
	}
}

func TestDefaultBudget(t *testing.T) {
	eng := sim.New()
	r := rt.NewSim(eng, 1)
	l := dataset.New("d", 147, 147, 3, 147)
	farm := disk.NewFarm(r, disk.Config{}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{})
	if m.Budget() != 32<<20 {
		t.Fatalf("default budget = %d", m.Budget())
	}
}

func TestSharedCacheAcrossQueries(t *testing.T) {
	eng, r, m, _, farm := rig(32<<20, true)
	// First query warms pages 0..9; the second (starting later) hits them.
	r.Spawn("warm", func(ctx rt.Ctx) {
		for p := 0; p < 10; p++ {
			m.ReadPage(ctx, "d", p)
		}
	})
	r.Spawn("reuse", func(ctx rt.Ctx) {
		ctx.Sleep(time.Second)
		for p := 0; p < 10; p++ {
			m.ReadPage(ctx, "d", p)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 10 {
		t.Fatalf("farm reads = %d, want 10", got)
	}
	if st := m.Stats(); st.Hits != 10 {
		t.Fatalf("hits = %d, want 10", st.Hits)
	}
}

func TestStartFetchOverlapsIO(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		// Kick off background fetches for pages 0..3, then compute for 10ms,
		// then read them: the reads should find them resident or in flight.
		for p := 0; p < 4; p++ {
			m.StartFetch(l, p)
		}
		ctx.Compute(10 * time.Millisecond)
		for p := 0; p < 4; p++ {
			m.ReadPage(ctx, "d", p)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Prefetches != 4 {
		t.Fatalf("Prefetches = %d", st.Prefetches)
	}
	if st.Misses != 0 {
		t.Fatalf("Misses = %d; reads should have coalesced or hit", st.Misses)
	}
	if farm.Stats().Reads != 4 {
		t.Fatalf("farm reads = %d", farm.Stats().Reads)
	}
	// The single-disk rig serializes the 4 fetches (1ms each); with the
	// 10ms compute overlapping them, the total must be ~10ms + residual,
	// far below the 14ms serial path.
	if eng.Now() > 12*time.Millisecond {
		t.Fatalf("makespan %v: prefetch did not overlap I/O with compute", eng.Now())
	}
}

func TestStartFetchDedup(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetch(l, 5)
		m.StartFetch(l, 5) // duplicate: no second fetch
		ctx.Sleep(5 * time.Millisecond)
		m.StartFetch(l, 5) // already resident: no-op
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 1 {
		t.Fatalf("farm reads = %d", got)
	}
	if m.Stats().Prefetches != 1 {
		t.Fatalf("Prefetches = %d", m.Stats().Prefetches)
	}
}

func TestStartFetchDisabledWithDedupOff(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, false)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetch(l, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if farm.Stats().Reads != 0 || m.Stats().Prefetches != 0 {
		t.Fatal("StartFetch should be inert when dedup is disabled")
	}
}

func TestRealRuntimeConcurrentReads(t *testing.T) {
	// Exercise the manager under real goroutines (race detector coverage).
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
	l := dataset.New("d", 147*8, 147*8, 3, 147)
	gen := func(l *dataset.Layout, page int) []byte {
		return make([]byte, l.PageBytes(page))
	}
	farm := disk.NewFarm(r, disk.Config{Disks: 2}, gen)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 1 << 20})
	for i := 0; i < 8; i++ {
		i := i
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			for p := 0; p < 32; p++ {
				data := m.ReadPage(ctx, "d", (p+i)%64)
				if int64(len(data)) != l.PageBytes((p+i)%64) {
					t.Errorf("bad page size %d", len(data))
				}
			}
		})
	}
	r.Wait()
	if m.Used() > m.Budget() {
		t.Fatalf("used %d > budget %d", m.Used(), m.Budget())
	}
}

// TestRealRuntimeCoalesceOnSlowFetch: eight readers of one page on real
// goroutines; the fetch is held until seven of them have coalesced onto it,
// so the gate the first of those creates must wake them all. Every reader
// gets the page, and the farm reads it once.
func TestRealRuntimeCoalesceOnSlowFetch(t *testing.T) {
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
	l := dataset.New("d", 147*8, 147*8, 3, 147)
	release := make(chan struct{})
	gen := func(l *dataset.Layout, page int) []byte {
		<-release
		return make([]byte, l.PageBytes(page))
	}
	farm := disk.NewFarm(r, disk.Config{Disks: 2}, gen)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 1 << 20})
	const readers = 8
	got := make([]int, readers)
	for i := 0; i < readers; i++ {
		i := i
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			got[i] = len(m.ReadPage(ctx, "d", 5))
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().InflightWaits < readers-1 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d readers coalesced", m.Stats().InflightWaits)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	r.Wait()
	for i, n := range got {
		if int64(n) != l.PageBytes(5) {
			t.Errorf("reader %d got %d bytes, want %d", i, n, l.PageBytes(5))
		}
	}
	if st := m.Stats(); st.Misses != 1 || st.InflightWaits != readers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d coalesced", st, readers-1)
	}
	if n := farm.Stats().Reads; n != 1 {
		t.Errorf("farm reads = %d, want 1", n)
	}
}

// An untraced hit is the hottest call on the read path (what bench/'s
// pagespace.hit_allocs measures from outside): looking up the span ctx
// carries, opening an inert child and deriving nothing must not allocate.
func TestUntracedHitAllocatesNothing(t *testing.T) {
	eng, r, m, _, _ := rig(32<<20, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.ReadPage(ctx, "d", 7)
		if n := testing.AllocsPerRun(200, func() { m.ReadPage(ctx, "d", 7) }); n != 0 {
			t.Errorf("ReadPage hit allocates %v", n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// A miss that evicts is paper_sim's hot call (PS 32 MB against 7.5 GB of
// slides: nearly every read misses). With the budget full, the page space
// must add no allocation to the farm read the miss issues: the LRU links
// live in the entry, and the evicted entry serves the next miss. The farm
// read itself allocates nothing on the simulated runtime, so neither does
// the miss.
func TestEvictingMissAllocatesOnlyTheFarmRead(t *testing.T) {
	pageBytes := int64(147 * 147 * 3)
	eng, r, m, l, farm := rig(4*pageBytes, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		next := 0
		for ; next < 64; next++ { // fill the budget and the free list
			m.ReadPage(ctx, "d", next)
		}
		before := m.Stats().Evictions
		miss := testing.AllocsPerRun(100, func() {
			m.ReadPage(ctx, "d", next)
			next++
		})
		if ev := m.Stats().Evictions - before; ev != 101 {
			t.Errorf("%d evictions in 101 misses", ev)
		}
		read := testing.AllocsPerRun(100, func() {
			farm.Read(ctx, l, next)
			next++
		})
		if miss != 0 || read != 0 {
			t.Errorf("a ReadPage miss allocates %v, its farm read %v; want 0 and 0", miss, read)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReadPageMissSim is the simulated miss path paper_sim spends its
// time in: an untraced ReadPage that misses a full page space, evicts, and
// reads one page from a four-spindle FIFO farm on the virtual-time engine.
// ns/op is the software cost of one page read, engine switches included.
func BenchmarkReadPageMissSim(b *testing.B) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*64, 147*64, 3, 147)
	farm := disk.NewFarm(r, disk.Config{}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 64 * l.FullPageBytes()})
	r.Spawn("q", func(ctx rt.Ctx) {
		for p := 0; p < 128; p++ { // fill the budget and the free list
			m.ReadPage(ctx, "d", p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ReadPage(ctx, "d", (128+i)%l.NumPages())
		}
		b.StopTimer()
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 0 {
		b.Fatalf("%d hits: every read must miss", st.Hits)
	}
}
