package pagespace

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

// elevRig is rig with an elevator-scheduled farm.
func elevRig(budget int64) (*sim.Engine, *rt.SimRuntime, *Manager, *dataset.Layout, *disk.Farm) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*20, 147*20, 3, 147) // 400 pages of 64827B
	farm := disk.NewFarm(r, disk.Config{
		Disks: 1, Sched: disk.SchedElevator,
		Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: budget})
	m.prefetchLimit = -1
	return eng, r, m, l, farm
}

// TestReadPagesMixedOutcomes: one batch spanning a resident page, two new
// pages, and an intra-batch duplicate settles every slot and does each disk
// transfer once.
func TestReadPagesMixedOutcomes(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.ReadPage(ctx, "d", 3) // make page 3 resident
		out := m.ReadPages(ctx, l, []int{3, 5, 5, 7})
		if len(out) != 4 {
			t.Errorf("got %d payloads", len(out))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 3 {
		t.Fatalf("farm reads = %d, want 3 (pages 3, 5, 7 once each)", got)
	}
	st := m.Stats()
	// Hits: page 3 in the batch, plus the duplicate 5 resolved in pass 3
	// after the owning fetch published. Misses: the priming read and the
	// two owned fetches.
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 2 hits / 3 misses", st)
	}
	for _, p := range []int{3, 5, 7} {
		if !m.Resident("d", p) {
			t.Fatalf("page %d should be resident", p)
		}
	}
}

func TestReadPagesAllResident(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.ReadPages(ctx, l, []int{1, 2, 3})
		before := farm.Stats().Reads
		m.ReadPages(ctx, l, []int{1, 2, 3})
		if got := farm.Stats().Reads; got != before {
			t.Errorf("resident batch issued %d extra reads", got-before)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// TestReadPagesDedupDisabled: with coalescing off, duplicate slots in one
// batch pay duplicate transfers (ablation A2 semantics carry over).
func TestReadPagesDedupDisabled(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, false)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.ReadPages(ctx, l, []int{5, 5})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 2 {
		t.Fatalf("farm reads = %d, want 2 duplicate transfers", got)
	}
	if st := m.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// TestReadPagesConcurrentCoalesce: two batches over the same pages coalesce
// — the second waits on the first's in-flight fetches instead of re-reading.
func TestReadPagesConcurrentCoalesce(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, true)
	for i := 0; i < 2; i++ {
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			out := m.ReadPages(ctx, l, []int{10, 11, 12, 13})
			if len(out) != 4 {
				t.Errorf("got %d payloads", len(out))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := farm.Stats().Reads; got != 4 {
		t.Fatalf("farm reads = %d, want 4 (second batch coalesced)", got)
	}
}

// TestReadPagesElevatorBytes: on the real runtime with an elevator farm the
// batched path returns the generator's bytes for every slot, duplicates
// included.
func TestReadPagesElevatorBytes(t *testing.T) {
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
	l := dataset.New("d", 147*8, 147*8, 3, 147)
	gen := func(l *dataset.Layout, page int) []byte {
		b := make([]byte, l.PageBytes(page))
		for i := range b {
			b[i] = byte(page*13 + i)
		}
		return b
	}
	farm := disk.NewFarm(r, disk.Config{Disks: 2, Sched: disk.SchedElevator}, gen)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 8 << 20})
	for q := 0; q < 4; q++ {
		q := q
		r.Spawn(fmt.Sprintf("q%d", q), func(ctx rt.Ctx) {
			pages := []int{q, q + 1, q, q + 2, 7 - q}
			out := m.ReadPages(ctx, l, pages)
			for i, p := range pages {
				if !bytes.Equal(out[i], gen(l, p)) {
					t.Errorf("q%d slot %d (page %d): wrong payload", q, i, p)
				}
			}
		})
	}
	r.Wait()
}

// TestStartFetchBatchMergesAndWarms: one batched hint submits all uncovered
// pages in a single farm batch; a later foreground batch is all hits.
func TestStartFetchBatchMergesAndWarms(t *testing.T) {
	eng, r, m, l, farm := elevRig(32 << 20)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetchBatch(l, []int{0, 1, 2, 3})
		m.StartFetchBatch(l, []int{0, 1, 2, 3}) // fully covered: no-op
		ctx.Sleep(20 * time.Millisecond)
		m.ReadPages(ctx, l, []int{0, 1, 2, 3})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fs := farm.Stats()
	if fs.Reads != 4 {
		t.Fatalf("farm reads = %d, want 4", fs.Reads)
	}
	if fs.Batches != 1 || fs.BatchPagesSum != 4 {
		t.Fatalf("prefetch batch not merged: %+v", fs)
	}
	st := m.Stats()
	if st.Prefetches != 4 || st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStartFetchBatchSlotDrop: the whole batch consumes one prefetch slot;
// with no slot free the entire hint is dropped and counted once.
func TestStartFetchBatchSlotDrop(t *testing.T) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	l := dataset.New("d", 147*20, 147*20, 3, 147)
	farm := disk.NewFarm(r, disk.Config{
		Disks: 1, Sched: disk.SchedElevator,
		Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 32 << 20})
	m.prefetchLimit = 1
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetchBatch(l, []int{0, 1, 2, 3}) // takes the only slot
		m.StartFetchBatch(l, []int{10, 11, 12}) // dropped whole
		ctx.Sleep(50 * time.Millisecond)        // first batch completes
		m.StartFetchBatch(l, []int{20, 21})     // slot free again
		ctx.Sleep(50 * time.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PrefetchDrops != 1 {
		t.Fatalf("PrefetchDrops = %d, want 1", st.PrefetchDrops)
	}
	if st.Prefetches != 6 {
		t.Fatalf("Prefetches = %d, want 6 (4 + 2, dropped batch excluded)", st.Prefetches)
	}
	if got := farm.Stats().Reads; got != 6 {
		t.Fatalf("farm reads = %d, want 6", got)
	}
	for _, p := range []int{10, 11, 12} {
		if m.Resident("d", p) {
			t.Fatalf("dropped page %d should not be resident", p)
		}
	}
}

// TestStartFetchBatchDedupOff: batched hints are inert when dedup is off,
// like StartFetch.
func TestStartFetchBatchDedupOff(t *testing.T) {
	eng, r, m, l, farm := rig(32<<20, false)
	r.Spawn("q", func(ctx rt.Ctx) {
		m.StartFetchBatch(l, []int{1, 2, 3})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if farm.Stats().Reads != 0 || m.Stats().Prefetches != 0 {
		t.Fatal("StartFetchBatch should be inert when dedup is disabled")
	}
}
