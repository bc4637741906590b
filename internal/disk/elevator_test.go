package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/rt"
)

func TestParseSched(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Sched
		err  bool
	}{
		{"", SchedFIFO, false},
		{"fifo", SchedFIFO, false},
		{"elevator", SchedElevator, false},
		{"scan", SchedFIFO, true},
	} {
		got, err := ParseSched(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("ParseSched(%q) = %v, %v", c.in, got, err)
		}
	}
	if SchedElevator.String() != "elevator" || SchedFIFO.String() != "fifo" {
		t.Fatal("Sched.String")
	}
}

func TestIOBatchPages(t *testing.T) {
	_, _, fifo := simFarm(Config{Disks: 4})
	if fifo.IOBatchPages() != 0 {
		t.Fatalf("FIFO IOBatchPages = %d, want 0", fifo.IOBatchPages())
	}
	_, _, elev := simFarm(Config{Disks: 4, Sched: SchedElevator})
	elev.maxBatchPages = 8
	if elev.IOBatchPages() != 32 {
		t.Fatalf("elevator IOBatchPages = %d, want 32", elev.IOBatchPages())
	}
}

// TestElevatorMergesAdjacentRequests: eight concurrent single-page readers
// hitting one spindle with an adjacent run are served as few multi-page
// transfers, each billed one positioning cost — far faster than eight FIFO
// services.
func TestElevatorMergesAdjacentRequests(t *testing.T) {
	run := func(sched Sched) (time.Duration, Stats) {
		eng, r, f := simFarm(Config{
			Disks: 1, Sched: sched, SeqWindow: 2,
			Seek: 5 * time.Millisecond, SeqSeek: 800 * time.Microsecond,
			ThrashPerStream: -1,
		})
		l := dataset.New("d", 147*40, 147*40, 3, 147)
		// Scrambled arrival order: FIFO services in this order and pays a
		// random positioning for every page; the elevator sorts the queue
		// back into one adjacent run.
		for i, page := range []int{4, 0, 6, 2, 7, 1, 5, 3} {
			p := page
			r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
				f.Read(ctx, l, p)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now(), f.Stats()
	}
	fifoTime, fifoSt := run(SchedFIFO)
	elevTime, elevSt := run(SchedElevator)
	if fifoSt.MergedReads != 0 || fifoSt.Batches != 0 {
		t.Fatalf("FIFO counted elevator stats: %+v", fifoSt)
	}
	if elevSt.Reads != 8 || fifoSt.Reads != 8 {
		t.Fatalf("Reads = %d / %d, want 8", fifoSt.Reads, elevSt.Reads)
	}
	// All eight requests are pending when the dispatcher first runs, pages
	// are adjacent, and the batch cap (16) exceeds the run, so a single
	// transfer serves all of them: 7 merged reads, 1 batch of 8 pages.
	if elevSt.Batches != 1 || elevSt.MergedReads != 7 || elevSt.BatchPagesSum != 8 {
		t.Fatalf("elevator stats: %+v", elevSt)
	}
	// One positioning + 8 transfers instead of 8 positionings + 8 transfers.
	if elevTime >= fifoTime/2 {
		t.Fatalf("elevator %v, fifo %v: want >= 2x faster", elevTime, fifoTime)
	}
	if elevSt.BytesRead != fifoSt.BytesRead {
		t.Fatalf("BytesRead: %d vs %d", elevSt.BytesRead, fifoSt.BytesRead)
	}
}

// TestElevatorScanOrder: with merging disabled, pending requests are served
// in ascending page order regardless of arrival order, and the spindle's
// head state reflects the dispatch order (the enqueue-time-accounting bug
// would leave it at the last-arrived page and misprice the sweep).
func TestElevatorScanOrder(t *testing.T) {
	eng, r, f := simFarm(Config{
		Disks: 1, Sched: SchedElevator, SeqWindow: 8, ThrashPerStream: -1,
	})
	f.maxBatchPages = 1
	l := dataset.New("d", 147*40, 147*40, 3, 147)
	var order []int
	// Arrival order 12, 4, 8: processes spawn (and enqueue) in this order
	// before the dispatcher first runs.
	for _, page := range []int{12, 4, 8} {
		p := page
		r.Spawn(fmt.Sprintf("q%d", p), func(ctx rt.Ctx) {
			f.Read(ctx, l, p)
			order = append(order, p)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 8, 12}; !equalInts(order, want) {
		t.Fatalf("service order %v, want %v", order, want)
	}
	st := f.Stats()
	// Dispatch-order pricing: 4 is random, 8 and 12 ride the upward sweep
	// within SeqWindow. Arrival-order pricing would find only one
	// sequential read (4→8 with last=4 after 12,4).
	if st.SeqReads != 2 {
		t.Fatalf("SeqReads = %d, want 2 (dispatch-order pricing)", st.SeqReads)
	}
	// The head state must reflect the last *dispatched* page, not the last
	// arrival.
	f.mu.Lock()
	last := -1
	for _, h := range f.heads[0] {
		if h.l == l {
			last = h.page
		}
	}
	f.mu.Unlock()
	if last != 12 {
		t.Fatalf("last dispatched = %d, want 12", last)
	}
	if st.MaxReorder == 0 {
		t.Fatal("expected nonzero reorder distance")
	}
}

// TestElevatorStarvationBound: a far-away request keeps being bypassed by
// the upward sweep, but must lead a batch after at most maxDelay
// dispatches. With the bound disabled it is served last.
func TestElevatorStarvationBound(t *testing.T) {
	run := func(maxDelay int) []int {
		eng, r, f := simFarm(Config{
			Disks: 1, Sched: SchedElevator, SeqWindow: 16, ThrashPerStream: -1,
		})
		f.maxBatchPages, f.maxDelay = 1, maxDelay
		l := dataset.New("d", 147*100, 147*100, 3, 147)
		var order []int
		spawnRead := func(p int) {
			r.Spawn(fmt.Sprintf("q%d", p), func(ctx rt.Ctx) {
				f.Read(ctx, l, p)
				order = append(order, p)
			})
		}
		// The far request arrives first, then ten near requests that all
		// sort before it in SCAN order.
		spawnRead(4000)
		for i := 1; i <= 10; i++ {
			spawnRead(4 * i)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}

	order := run(2)
	pos := indexOf(order, 4000)
	// Enqueued before any dispatch (deadline = round 2), the far request
	// may be bypassed in rounds 1 and 2 and must lead round 3.
	if pos != 2 {
		t.Fatalf("far request served at position %d (order %v), want 2", pos, order)
	}

	order = run(-1) // pure SCAN: the sweep drains every near page first
	if pos := indexOf(order, 4000); pos != len(order)-1 {
		t.Fatalf("unbounded elevator served far request at %d (order %v), want last", pos, order)
	}
}

// TestElevatorDeterministic: the same concurrent scenario produces the same
// virtual-time makespan and stats on every run (the dispatcher must not
// depend on map iteration or other nondeterminism).
func TestElevatorDeterministic(t *testing.T) {
	run := func() (time.Duration, Stats) {
		eng, r, f := simFarm(Config{Disks: 4, Sched: SchedElevator})
		l := dataset.New("d", 147*100, 147*100, 3, 147)
		for i := 0; i < 6; i++ {
			start := i * 700
			r.Spawn(fmt.Sprintf("scan%d", i), func(ctx rt.Ctx) {
				pages := make([]int, 40)
				for j := range pages {
					pages[j] = start + j
				}
				f.ReadPages(ctx, l, pages)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now(), f.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
	if s1.Batches == 0 || s1.MergedReads == 0 {
		t.Fatalf("expected merging under concurrent scans: %+v", s1)
	}
}

// TestElevatorReadPagesDuplicates: duplicate page indices in one submission
// are transferred once but every requester gets the payload.
func TestElevatorReadPagesDuplicates(t *testing.T) {
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.0001})
	f := NewFarm(r, Config{Disks: 2, Sched: SchedElevator}, testGen)
	l := dataset.New("d", 147*8, 147*8, 3, 147)
	var got [][]byte
	r.Spawn("q", func(ctx rt.Ctx) {
		got = f.ReadPages(ctx, l, []int{5, 3, 5, 3, 5})
	})
	r.Wait()
	if len(got) != 5 {
		t.Fatalf("got %d payloads", len(got))
	}
	for i, p := range []int{5, 3, 5, 3, 5} {
		if !bytes.Equal(got[i], testGen(l, p)) {
			t.Fatalf("payload %d (page %d) wrong", i, p)
		}
	}
	st := f.Stats()
	if st.Reads != 2 {
		t.Fatalf("Reads = %d, want 2 distinct transfers", st.Reads)
	}
	// Merged = requests − transfers: five requests rode one batch.
	if st.MergedReads != 4 {
		t.Fatalf("MergedReads = %d, want 4", st.MergedReads)
	}
}

// testGen is a deterministic page generator: every byte derives from the
// dataset name, page index, and offset.
func testGen(l *dataset.Layout, page int) []byte {
	b := make([]byte, l.PageBytes(page))
	seed := byte(len(l.Name)*31 + page*7)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// TestElevatorDifferentialBytes is the randomized differential test: under a
// concurrent mixed workload of single reads and batch reads with heavy
// overlap, an elevator farm returns byte-identical pages to a FIFO farm
// (both must equal the generator's output for every request). Runs under
// -race in CI.
func TestElevatorDifferentialBytes(t *testing.T) {
	l := dataset.New("dd", 147*30, 147*30, 3, 147) // 900 pages
	type req struct {
		pages []int
	}
	// One deterministic workload shared by both farms.
	rng := rand.New(rand.NewSource(42))
	const readers = 8
	work := make([][]req, readers)
	for w := range work {
		for n := 0; n < 12; n++ {
			k := 1 + rng.Intn(24)
			base := rng.Intn(l.NumPages())
			pages := make([]int, 0, k)
			for j := 0; j < k; j++ {
				p := base + rng.Intn(48) - 24
				if p < 0 {
					p = 0
				}
				if p >= l.NumPages() {
					p = l.NumPages() - 1
				}
				pages = append(pages, p)
			}
			work[w] = append(work[w], req{pages: pages})
		}
	}

	run := func(sched Sched, maxDelay int) {
		r := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
		f := NewFarm(r, Config{Disks: 4, Sched: sched}, testGen)
		f.maxDelay = maxDelay
		var mu sync.Mutex
		var fail string
		for w := 0; w < readers; w++ {
			reqs := work[w]
			r.Spawn(fmt.Sprintf("reader%d", w), func(ctx rt.Ctx) {
				for _, rq := range reqs {
					var datas [][]byte
					if len(rq.pages) == 1 {
						data, _ := f.Read(ctx, l, rq.pages[0])
						datas = [][]byte{data}
					} else {
						datas = f.ReadPages(ctx, l, rq.pages)
					}
					for i, p := range rq.pages {
						if !bytes.Equal(datas[i], testGen(l, p)) {
							mu.Lock()
							fail = fmt.Sprintf("%v page %d: wrong payload", sched, p)
							mu.Unlock()
							return
						}
					}
				}
			})
		}
		r.Wait()
		if fail != "" {
			t.Fatal(fail)
		}
	}
	run(SchedFIFO, 8)
	run(SchedElevator, 8)
	run(SchedElevator, -1) // unbounded reordering must still be lossless
	run(SchedElevator, 1)  // aggressive starvation bound
}

// TestFIFOReadPagesMatchesSequentialReads: under FIFO, ReadPages is exactly
// the one-page-at-a-time loop (same virtual timeline).
func TestFIFOReadPagesMatchesSequentialReads(t *testing.T) {
	run := func(batch bool) time.Duration {
		eng, r, f := simFarm(Config{Disks: 4})
		l := dataset.New("d", 147*40, 147*40, 3, 147)
		r.Spawn("q", func(ctx rt.Ctx) {
			pages := make([]int, 64)
			for i := range pages {
				pages[i] = i
			}
			if batch {
				f.ReadPages(ctx, l, pages)
			} else {
				for _, p := range pages {
					f.Read(ctx, l, p)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("FIFO ReadPages changed the timeline: %v vs %v", a, b)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
