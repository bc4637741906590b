package server

import (
	"fmt"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/testapp"
)

// realStack wires a toy-app server on the real runtime with the given data
// store budget.
func realStack(rtm *rt.RealRuntime, dsBudget int64) *stack {
	l := dataset.New("d", 600, 600, 1, 97)
	table := dataset.NewTable(l)
	app := testapp.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2}, testapp.Generate)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 1 << 20})
	ds := datastore.New(app, datastore.Options{Budget: dsBudget})
	graph := sched.New(rtm, app, sched.MUF{})
	srv := New(rtm, app, graph, ds, ps, Options{Threads: 3})
	return &stack{app: app, layer: l, farm: farm, ps: ps, ds: ds, graph: graph, srv: srv}
}

func pixelOracle(ds string, x, y int64) byte { return testapp.Pixel(ds, x, y) }

// Edge cases and failure-pressure scenarios: tiny budgets, border windows,
// single-thread blocking, oversubscribed pools. Everything must complete
// (no deadlocks, no lost queries) with the accounting invariants intact.

func TestTinyDataStoreBudget(t *testing.T) {
	// One byte of DS: every insert is rejected; queries still complete and
	// nothing leaks into the graph.
	s := newStack(stackOpts{dsBudget: 1})
	s.runClient(t, func(ctx rt.Ctx) {
		for i := 0; i < 4; i++ {
			tk, err := s.srv.Submit(m(geom.R(0, 0, 150, 150)))
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			res := tk.Wait(ctx)
			if res.ReusedFrac != 0 {
				t.Errorf("reuse with a 1-byte DS: %v", res.ReusedFrac)
			}
		}
	})
	if s.ds.Stats().Rejected != 4 {
		t.Fatalf("Rejected = %d", s.ds.Stats().Rejected)
	}
	if s.graph.Len() != 0 {
		t.Fatalf("graph.Len = %d", s.graph.Len())
	}
}

func TestTinyPageSpaceBudget(t *testing.T) {
	s := newStack(stackOpts{psBudget: 1})
	s.runClient(t, func(ctx rt.Ctx) {
		tk, _ := s.srv.Submit(m(geom.R(0, 0, 300, 300)))
		res := tk.Wait(ctx)
		if res.InputBytesRead == 0 {
			t.Error("no raw bytes read")
		}
	})
	if s.ps.Used() > 100*100 {
		t.Fatalf("PS over budget beyond one page: %d", s.ps.Used())
	}
}

func TestFullDatasetQuery(t *testing.T) {
	s := newStack(stackOpts{})
	s.runClient(t, func(ctx rt.Ctx) {
		tk, _ := s.srv.Submit(m(geom.R(0, 0, 1000, 1000)))
		res := tk.Wait(ctx)
		// Every page of the 1000x1000/100 dataset: 100 pages of 10KB.
		if res.InputBytesRead != 100*100*100 {
			t.Errorf("InputBytesRead = %d", res.InputBytesRead)
		}
	})
}

func TestBorderWindows(t *testing.T) {
	s := newStack(stackOpts{})
	s.runClient(t, func(ctx rt.Ctx) {
		for _, r := range []geom.Rect{
			geom.R(999, 999, 1000, 1000), // single pixel in the corner
			geom.R(0, 0, 1, 1),
			geom.R(0, 999, 1000, 1000), // one-pixel-high strip
		} {
			tk, err := s.srv.Submit(m(r))
			if err != nil {
				t.Errorf("Submit(%v): %v", r, err)
				return
			}
			res := tk.Wait(ctx)
			if res.ReusedFrac < 0 || res.ReusedFrac > 1 {
				t.Errorf("window %v: reuse %v", r, res.ReusedFrac)
			}
		}
	})
}

func TestSingleThreadWithBlockingNeverDeadlocks(t *testing.T) {
	// With one query thread, BlockableProducers can never return another
	// running query, so blocking must be a no-op rather than a deadlock.
	s := newStack(stackOpts{threads: 1})
	s.runClient(t, func(ctx rt.Ctx) {
		var tks []*Ticket
		for i := 0; i < 6; i++ {
			tk, _ := s.srv.Submit(m(geom.R(0, 0, 250, 250)))
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			tk.Wait(ctx)
		}
	})
	if got := s.srv.Stats().Blocks; got != 0 {
		t.Fatalf("Blocks = %d with a single thread", got)
	}
}

func TestMoreThreadsThanQueries(t *testing.T) {
	s := newStack(stackOpts{threads: 16})
	s.runClient(t, func(ctx rt.Ctx) {
		tk, _ := s.srv.Submit(m(geom.R(0, 0, 100, 100)))
		tk.Wait(ctx)
	})
	if s.srv.Stats().Completed != 1 {
		t.Fatal("query did not complete")
	}
}

func TestEvictionStorm(t *testing.T) {
	// DS fits a single 100x100 result; a stream of distinct queries forces
	// an eviction on nearly every insert. Everything must stay consistent.
	s := newStack(stackOpts{dsBudget: 100 * 100, threads: 2})
	const n = 20
	s.runClient(t, func(ctx rt.Ctx) {
		var tks []*Ticket
		for i := 0; i < n; i++ {
			x := int64(i%10) * 100
			y := int64(i/10) * 100
			tk, err := s.srv.Submit(m(geom.R(x, y, x+100, y+100)))
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			tk.Wait(ctx)
		}
	})
	st := s.srv.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	// At most one result can remain cached.
	if got := s.graph.Len(); got > 1 {
		t.Fatalf("graph.Len = %d", got)
	}
	if s.ds.Stats().Evictions < n-2 {
		t.Fatalf("evictions = %d", s.ds.Stats().Evictions)
	}
}

func TestCancelWaitingQuery(t *testing.T) {
	// One thread: the first query occupies it; the second sits WAITING and
	// is canceled before execution.
	s := newStack(stackOpts{threads: 1})
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 300, 300)))
		tk2, _ := s.srv.Submit(m(geom.R(500, 500, 800, 800)))
		if !s.srv.Cancel(tk2) {
			t.Error("Cancel of a waiting query failed")
		}
		// The canceled ticket completes immediately.
		res2 := tk2.Wait(ctx)
		if !res2.Canceled || res2.Blob != nil || res2.InputBytesRead != 0 {
			t.Errorf("canceled result = %+v", res2)
		}
		// Double-cancel and cancel-after-done report false.
		if s.srv.Cancel(tk2) {
			t.Error("double Cancel succeeded")
		}
		res1 := tk1.Wait(ctx)
		if res1.Canceled {
			t.Error("uncanceled query marked canceled")
		}
		if s.srv.Cancel(tk1) {
			t.Error("Cancel of a completed query succeeded")
		}
	})
	st := s.srv.Stats()
	if st.Canceled != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.graph.Len() != 1 { // only the cached first result remains
		t.Fatalf("graph.Len = %d", s.graph.Len())
	}
}

func TestCancelRefreshesNeighbourRanks(t *testing.T) {
	// MUF: a hub's rank counts waiting consumers; canceling a consumer must
	// lower the hub's usefulness.
	s := newStack(stackOpts{threads: 1, policy: sched.MUF{}})
	s.runClient(t, func(ctx rt.Ctx) {
		blockTk, _ := s.srv.Submit(m(geom.R(900, 900, 950, 950))) // occupies the thread
		hub, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		consTk, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		rankBefore := hubRank(hub)
		s.srv.Cancel(consTk)
		if got := hubRank(hub); got >= rankBefore {
			t.Errorf("hub rank %v did not drop after cancel (was %v)", got, rankBefore)
		}
		blockTk.Wait(ctx)
		hub.Wait(ctx)
	})
}

// hubRank reads the scheduling rank through the ticket's node (test-only).
func hubRank(t *Ticket) float64 { return t.node.Rank() }

// Byte conservation: reused + computed output bytes equals the total output
// across any workload.
func TestOutputByteConservation(t *testing.T) {
	s := newStack(stackOpts{threads: 3, policy: sched.CNBF{}})
	var want int64
	done := s.rtm.NewGate("clients")
	remaining := 4
	for c := 0; c < 4; c++ {
		c := c
		s.rtm.Spawn(fmt.Sprintf("c%d", c), func(ctx rt.Ctx) {
			for q := 0; q < 5; q++ {
				x := int64((c*211 + q*97) % 600)
				y := int64((c*151 + q*67) % 600)
				meta := m(geom.R(x, y, x+220, y+220))
				tk, err := s.srv.Submit(meta)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				res := tk.Wait(ctx)
				_ = res
			}
			remaining--
			if remaining == 0 {
				done.Open()
			}
		})
	}
	want = 4 * 5 * 220 * 220 // bytes (1 Bpp toy app)
	s.rtm.Spawn("closer", func(ctx rt.Ctx) {
		done.Wait(ctx)
		s.srv.Close()
	})
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.srv.Stats()
	if got := st.ReusedOutputBytes + st.ComputedOutputBytes; got != want {
		t.Fatalf("reused %d + computed %d = %d, want %d",
			st.ReusedOutputBytes, st.ComputedOutputBytes, got, want)
	}
}

// A second app sanity check: results remain correct under heavy reuse in
// real mode even when the data store is constantly evicting.
func TestRealModeEvictionPressure(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
	s := realStack(rtm, 30000) // tiny DS budget: constant eviction
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		i := i
		rtm.Spawn(fmt.Sprintf("c%d", i), func(ctx rt.Ctx) {
			for q := 0; q < 5; q++ {
				x := int64((i*67 + q*129) % 400)
				tk, err := s.srv.Submit(m(geom.R(x, x, x+160, x+160)))
				if err != nil {
					errs <- err
					return
				}
				res := tk.Wait(ctx)
				if err := verifyPixels(res); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		})
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s.srv.Close()
	rtm.Wait()
}

// verifyPixels checks a toy-app result against the pixel oracle.
func verifyPixels(res *query.Result) error {
	mm := res.Meta.(interface {
		Region() geom.Rect
		Dataset() string
	})
	r := mm.Region()
	i := 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if res.Blob.Data[i] != pixelOracle(mm.Dataset(), x, y) {
				return fmt.Errorf("pixel (%d,%d) wrong", x, y)
			}
			i++
		}
	}
	return nil
}

// TestEvictionDuringInsertSettlesGraph: with the data store holding one or
// two results and eight threads finishing distinct queries at once, an entry
// is routinely reclaimed by another thread's insert before its own query has
// marked its node CACHED. Whichever side gets there first, the node must
// leave the graph: afterwards the graph holds exactly the nodes whose results
// are still resident, none stranded CACHED over an evicted entry.
func TestEvictionDuringInsertSettlesGraph(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.000001})
	l := dataset.New("d", 600, 600, 1, 97)
	table := dataset.NewTable(l)
	app := testapp.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 4}, testapp.Generate)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 1 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 2 * 50 * 50})
	graph := sched.New(rtm, app, sched.FIFO{})
	srv := New(rtm, app, graph, ds, ps, Options{Threads: 8, DisableBlocking: true})

	const clients, each = 8, 60
	done := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		c := int64(c)
		rtm.Spawn(fmt.Sprintf("c%d", c), func(ctx rt.Ctx) {
			defer func() { done <- struct{}{} }()
			for q := int64(0); q < each; q++ {
				x, y := c*60, q%11*50
				tk, err := srv.Submit(m(geom.R(x, y, x+50, y+50)))
				if err != nil {
					t.Error(err)
					return
				}
				tk.Wait(ctx)
			}
		})
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	srv.Close()
	rtm.Wait()
	if st := ds.Stats(); st.Evictions < clients*each/2 {
		t.Fatalf("only %d evictions: the store was not under pressure", st.Evictions)
	}
	if graph.Len() != ds.Len() {
		t.Fatalf("graph holds %d nodes, the data store %d entries", graph.Len(), ds.Len())
	}
}
