package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/sim"
	"mqsched/internal/testapp"
	"mqsched/internal/trace"
)

// stack bundles a fully wired simulated server over the toy range-scan app.
type stack struct {
	eng   *sim.Engine
	rtm   *rt.SimRuntime
	app   *testapp.App
	layer *dataset.Layout
	farm  *disk.Farm
	ps    *pagespace.Manager
	ds    *datastore.Manager
	graph *sched.Graph
	srv   *Server
}

type stackOpts struct {
	policy   sched.Policy
	threads  int
	dsBudget int64 // 0 = default, -1 = no data store
	noBlock  bool
	psBudget int64
	cpus     int
}

func newStack(o stackOpts) *stack {
	if o.policy == nil {
		o.policy = sched.FIFO{}
	}
	if o.threads == 0 {
		o.threads = 2
	}
	if o.cpus == 0 {
		o.cpus = 8
	}
	eng := sim.New()
	rtm := rt.NewSim(eng, o.cpus)
	l := dataset.New("d", 1000, 1000, 1, 100) // 100 pages of 10KB
	table := dataset.NewTable(l)
	app := testapp.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2, Seek: time.Millisecond, SeqSeek: 500 * time.Microsecond, BandwidthBps: 10 << 20}, nil)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: o.psBudget})
	var ds *datastore.Manager
	if o.dsBudget >= 0 {
		ds = datastore.New(app, datastore.Options{Budget: o.dsBudget})
	}
	graph := sched.New(rtm, app, o.policy)
	srv := New(rtm, app, graph, ds, ps, Options{
		Threads:          o.threads,
		BlockOnExecuting: !o.noBlock,
	})
	return &stack{eng: eng, rtm: rtm, app: app, layer: l, farm: farm, ps: ps, ds: ds, graph: graph, srv: srv}
}

func m(r geom.Rect) testapp.Meta { return testapp.Meta{DS: "d", Rect: r} }

// runClient drives fn as the single client process and runs the simulation
// to completion (closing the server afterwards).
func (s *stack) runClient(t *testing.T, fn func(ctx rt.Ctx)) {
	t.Helper()
	s.rtm.Spawn("client", func(ctx rt.Ctx) {
		fn(ctx)
		s.srv.Close()
	})
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleQuery(t *testing.T) {
	s := newStack(stackOpts{})
	var res *query.Result
	s.runClient(t, func(ctx rt.Ctx) {
		tk, err := s.srv.Submit(m(geom.R(0, 0, 250, 250)))
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		res = tk.Wait(ctx)
	})
	if res == nil {
		t.Fatal("no result")
	}
	if res.ResponseTime() <= 0 || res.ExecTime() <= 0 {
		t.Fatalf("timings: %+v", res)
	}
	if res.ReusedFrac != 0 {
		t.Fatalf("ReusedFrac = %v on a cold store", res.ReusedFrac)
	}
	// 250x250 window over 100px pages: 9 pages of 10KB.
	if res.InputBytesRead != 9*100*100 {
		t.Fatalf("InputBytesRead = %d", res.InputBytesRead)
	}
	st := s.srv.Stats()
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFullReuse(t *testing.T) {
	s := newStack(stackOpts{})
	var first, second *query.Result
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		first = tk1.Wait(ctx)
		tk2, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		second = tk2.Wait(ctx)
	})
	if second.ReusedFrac != 1 {
		t.Fatalf("second ReusedFrac = %v", second.ReusedFrac)
	}
	if second.InputBytesRead != 0 {
		t.Fatalf("second read %d raw bytes", second.InputBytesRead)
	}
	if second.ExecTime() >= first.ExecTime() {
		t.Fatalf("reused exec %v not faster than cold %v", second.ExecTime(), first.ExecTime())
	}
	st := s.srv.Stats()
	if st.FullHits != 1 || st.Projections != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPartialReuseGeneratesSubqueries(t *testing.T) {
	s := newStack(stackOpts{})
	var second *query.Result
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 200, 100)))
		tk1.Wait(ctx)
		// Second query: left half cached, right half fresh.
		tk2, _ := s.srv.Submit(m(geom.R(0, 0, 400, 100)))
		second = tk2.Wait(ctx)
	})
	if second.ReusedFrac != 0.5 {
		t.Fatalf("ReusedFrac = %v, want 0.5", second.ReusedFrac)
	}
	// Only the uncovered right half's pages are read: columns 2..3, row 0:
	// pages under rect [200,400)x[0,100) = 2 pages.
	if second.InputBytesRead != 2*100*100 {
		t.Fatalf("InputBytesRead = %d", second.InputBytesRead)
	}
}

func TestCachingDisabled(t *testing.T) {
	s := newStack(stackOpts{dsBudget: -1})
	var second *query.Result
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		tk1.Wait(ctx)
		tk2, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		second = tk2.Wait(ctx)
	})
	if second.ReusedFrac != 0 {
		t.Fatalf("ReusedFrac = %v with caching off", second.ReusedFrac)
	}
	if second.InputBytesRead == 0 {
		t.Fatal("second query should re-read raw data")
	}
	// The scheduling graph holds no completed nodes (everything removed).
	if s.graph.Len() != 0 {
		t.Fatalf("graph.Len = %d", s.graph.Len())
	}
}

func TestBlockOnExecutingProducer(t *testing.T) {
	s := newStack(stackOpts{threads: 2})
	var r1, r2 *query.Result
	s.runClient(t, func(ctx rt.Ctx) {
		// Two identical queries in flight simultaneously on 2 threads: the
		// second must stall on the first and then reuse its result.
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 300, 300)))
		tk2, _ := s.srv.Submit(m(geom.R(0, 0, 300, 300)))
		r1 = tk1.Wait(ctx)
		r2 = tk2.Wait(ctx)
	})
	if s.srv.Stats().Blocks != 1 {
		t.Fatalf("Blocks = %d, want 1", s.srv.Stats().Blocks)
	}
	if r2.WaitedOnExecuting != 1 || r2.ReusedFrac != 1 || r2.InputBytesRead != 0 {
		t.Fatalf("r2 = %+v", r2)
	}
	if r1.WaitedOnExecuting != 0 {
		t.Fatalf("r1 waited: %+v", r1)
	}
	// Only one copy of the raw bytes was read in total.
	if got := s.srv.Stats().RawBytes; got != r1.InputBytesRead {
		t.Fatalf("total raw bytes %d vs r1 %d", got, r1.InputBytesRead)
	}
}

func TestNoBlockingOption(t *testing.T) {
	s := newStack(stackOpts{threads: 2, noBlock: true})
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 300, 300)))
		tk2, _ := s.srv.Submit(m(geom.R(0, 0, 300, 300)))
		tk1.Wait(ctx)
		tk2.Wait(ctx)
	})
	if got := s.srv.Stats().Blocks; got != 0 {
		t.Fatalf("Blocks = %d with blocking disabled", got)
	}
}

func TestEvictionSwapsOutNode(t *testing.T) {
	// Data store fits exactly one 200x200 result (40000 bytes).
	s := newStack(stackOpts{dsBudget: 40000})
	var third *query.Result
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		tk1.Wait(ctx)
		// Second result evicts the first.
		tk2, _ := s.srv.Submit(m(geom.R(600, 600, 800, 800)))
		tk2.Wait(ctx)
		// Third repeats the first: its result is gone, so raw I/O again.
		tk3, _ := s.srv.Submit(m(geom.R(0, 0, 200, 200)))
		third = tk3.Wait(ctx)
	})
	if third.ReusedFrac != 0 {
		t.Fatalf("third ReusedFrac = %v after eviction", third.ReusedFrac)
	}
	if s.ds.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// The graph contains only the nodes whose results are still cached.
	if got := s.graph.Len(); got != 1 {
		t.Fatalf("graph.Len = %d, want 1", got)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := newStack(stackOpts{})
	s.runClient(t, func(ctx rt.Ctx) {
		s.srv.Close()
		if _, err := s.srv.Submit(m(geom.R(0, 0, 10, 10))); err != ErrClosed {
			t.Errorf("Submit after close: %v", err)
		}
	})
}

func TestManyConcurrentClientsSim(t *testing.T) {
	s := newStack(stackOpts{threads: 4})
	const clients = 8
	done := s.rtm.NewGate("all-clients")
	remaining := clients
	for i := 0; i < clients; i++ {
		i := i
		s.rtm.Spawn(fmt.Sprintf("client%d", i), func(ctx rt.Ctx) {
			for q := 0; q < 4; q++ {
				x := int64((i*137 + q*211) % 700)
				y := int64((i*229 + q*101) % 700)
				tk, err := s.srv.Submit(m(geom.R(x, y, x+200, y+200)))
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				res := tk.Wait(ctx)
				if res.Completed < res.ExecStart || res.ExecStart < res.Arrival {
					t.Errorf("inconsistent times: %+v", res)
				}
			}
			remaining--
			if remaining == 0 {
				done.Open()
			}
		})
	}
	s.rtm.Spawn("closer", func(ctx rt.Ctx) {
		done.Wait(ctx)
		s.srv.Close()
	})
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.srv.Stats()
	if st.Completed != clients*4 {
		t.Fatalf("completed %d of %d", st.Completed, clients*4)
	}
	// With this much spatial locality some reuse must have happened.
	if st.ReusedOutputBytes == 0 && st.Blocks == 0 {
		t.Error("expected some reuse across overlapping clients")
	}
}

// Determinism: identical simulated workloads produce identical timings.
func TestSimulationDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := newStack(stackOpts{threads: 3, policy: sched.CF{Alpha: 0.2}})
		var times []time.Duration
		done := s.rtm.NewGate("done")
		n := 3
		for i := 0; i < 3; i++ {
			i := i
			s.rtm.Spawn(fmt.Sprintf("c%d", i), func(ctx rt.Ctx) {
				for q := 0; q < 3; q++ {
					x := int64((i*300 + q*100) % 600)
					tk, _ := s.srv.Submit(m(geom.R(x, x, x+250, x+250)))
					res := tk.Wait(ctx)
					times = append(times, res.ResponseTime())
				}
				n--
				if n == 0 {
					done.Open()
				}
			})
		}
		s.rtm.Spawn("closer", func(ctx rt.Ctx) {
			done.Wait(ctx)
			s.srv.Close()
		})
		if err := s.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic simulation:\n%v\n%v", a, b)
	}
}

// Real-runtime end-to-end correctness: results must match the synthetic
// pixel oracle even with reuse, projection, blocking, and eviction racing.
func TestRealRuntimeCorrectness(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.0001})
	l := dataset.New("d", 600, 600, 1, 97)
	table := dataset.NewTable(l)
	app := testapp.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2}, testapp.Generate)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 1 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 200000})
	graph := sched.New(rtm, app, sched.MUF{})
	srv := New(rtm, app, graph, ds, ps, Options{Threads: 4, BlockOnExecuting: true})

	verify := func(res *query.Result) error {
		mm := res.Meta.(testapp.Meta)
		want := make([]byte, mm.Rect.Area())
		i := 0
		for y := mm.Rect.Y0; y < mm.Rect.Y1; y++ {
			for x := mm.Rect.X0; x < mm.Rect.X1; x++ {
				want[i] = testapp.Pixel("d", x, y)
				i++
			}
		}
		if !bytes.Equal(res.Blob.Data, want) {
			return fmt.Errorf("query %v: wrong pixels", mm)
		}
		return nil
	}

	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		i := i
		rtm.Spawn(fmt.Sprintf("client%d", i), func(ctx rt.Ctx) {
			for q := 0; q < 6; q++ {
				x := int64((i*53 + q*97) % 350)
				y := int64((i*31 + q*61) % 350)
				tk, err := srv.Submit(m(geom.R(x, y, x+180, y+180)))
				if err != nil {
					errs <- err
					return
				}
				res := tk.Wait(ctx)
				if err := verify(res); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		})
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	rtm.Wait()
}

// Concurrent projection of disjoint data-store candidates must produce the
// same bytes and counters as the serial candidate walk, and the
// compute-workers gauge must report the resolved bound.
func TestParallelProjectionMatchesSerial(t *testing.T) {
	run := func(parallelism int) ([]byte, Stats, int64) {
		rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.0001})
		l := dataset.New("d", 600, 600, 1, 97)
		table := dataset.NewTable(l)
		app := testapp.New(table)
		farm := disk.NewFarm(rtm, disk.Config{Disks: 2}, testapp.Generate)
		ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 1 << 20})
		ds := datastore.New(app, datastore.Options{Budget: 8 << 20})
		graph := sched.New(rtm, app, sched.FIFO{})
		reg := metrics.NewRegistry()
		srv := New(rtm, app, graph, ds, ps, Options{
			Threads:            2,
			BlockOnExecuting:   true,
			ComputeParallelism: parallelism,
			Metrics:            reg,
		})

		var data []byte
		done := make(chan struct{})
		rtm.Spawn("client", func(ctx rt.Ctx) {
			defer close(done)
			// Seed the store with a grid of disjoint tiles...
			var tks []*Ticket
			for ty := int64(0); ty < 4; ty++ {
				for tx := int64(0); tx < 4; tx++ {
					tk, err := srv.Submit(m(geom.R(tx*100, ty*100, tx*100+100, ty*100+100)))
					if err != nil {
						t.Error(err)
						return
					}
					tks = append(tks, tk)
				}
			}
			for _, tk := range tks {
				tk.Wait(ctx)
			}
			// ...then one query covered by many cached candidates at once.
			tk, err := srv.Submit(m(geom.R(50, 50, 350, 350)))
			if err != nil {
				t.Error(err)
				return
			}
			res := tk.Wait(ctx)
			data = append([]byte(nil), res.Blob.Data...)
		})
		<-done
		srv.Close()
		rtm.Wait()
		gauge := reg.Gauge("mqsched_server_compute_workers", "", metrics.L("strategy", sched.FIFO{}.Name())).Value()
		return data, srv.Stats(), gauge
	}

	serialData, serialStats, serialGauge := run(1)
	parData, parStats, parGauge := run(4)
	if serialGauge != 1 || parGauge != 4 {
		t.Fatalf("compute-workers gauge: serial=%d parallel=%d", serialGauge, parGauge)
	}
	if len(serialData) == 0 || !bytes.Equal(serialData, parData) {
		t.Fatal("parallel projection produced different bytes than serial")
	}
	if serialStats.Projections != parStats.Projections ||
		serialStats.ReusedOutputBytes != parStats.ReusedOutputBytes {
		t.Fatalf("stats diverge: serial %+v vs parallel %+v", serialStats, parStats)
	}
	// The big query must actually have been answered by projection.
	if parStats.Projections == 0 {
		t.Fatal("no projections happened; test is vacuous")
	}
	want := make([]byte, 300*300)
	i := 0
	for y := int64(50); y < 350; y++ {
		for x := int64(50); x < 350; x++ {
			want[i] = testapp.Pixel("d", x, y)
			i++
		}
	}
	if !bytes.Equal(parData, want) {
		t.Fatal("projected query returned wrong pixels")
	}
}

// TestReusedBytesChargedPerProjection is the accounting regression for the
// lookup-time over-count: with two cached candidates where the first fully
// covers the probe, only the projected candidate's size lands in
// ReusedBytes — the second is pinned by the lookup but never used.
func TestReusedBytesChargedPerProjection(t *testing.T) {
	s := newStack(stackOpts{})
	s.runClient(t, func(ctx rt.Ctx) {
		tk1, _ := s.srv.Submit(m(geom.R(0, 0, 100, 100))) // E1: covers everything below
		tk1.Wait(ctx)
		tk2, _ := s.srv.Submit(m(geom.R(25, 25, 75, 75))) // E2: nested inside E1
		tk2.Wait(ctx)
		// Probe covered fully by E1 (overlap 1); E2 overlaps 0.25 and is a
		// lookup candidate but never projected.
		tk3, _ := s.srv.Submit(m(geom.R(0, 0, 50, 50)))
		tk3.Wait(ctx)
	})
	st := s.ds.Stats()
	// Query 2 projects E1 once (100x100), query 3 projects E1 once more.
	// The old lookup-time accounting would also have charged E2's 50x50.
	want := int64(2 * 100 * 100)
	if st.ReusedBytes != want {
		t.Fatalf("ReusedBytes = %d, want %d (E2 must not be charged)", st.ReusedBytes, want)
	}
}

// aggScan extends the range-scan app with a parent derivation so the cost
// policy can emit materialization hints: the parent is the hot union.
type aggScan struct {
	*testapp.App
}

func (a *aggScan) ParentMeta(samples []query.Meta, hot geom.Rect) (query.Meta, bool) {
	if len(samples) == 0 || hot.Empty() {
		return nil, false
	}
	return testapp.Meta{DS: samples[0].Dataset(), Rect: hot}, true
}

// TestProactiveMaterialization drives disjoint probes through a cost-policy
// store until a hot cell hints, and checks the server computes the parent
// aggregate ahead of demand: a later query inside the hot region is answered
// entirely from the materialized result.
func TestProactiveMaterialization(t *testing.T) {
	eng := sim.New()
	rtm := rt.NewSim(eng, 8)
	l := dataset.New("d", 1000, 1000, 1, 100)
	table := dataset.NewTable(l)
	app := &aggScan{testapp.New(table)}
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2, Seek: time.Millisecond, SeqSeek: 500 * time.Microsecond, BandwidthBps: 10 << 20}, nil)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{})
	ds := datastore.New(app, datastore.Options{
		Policy:               datastore.PolicyCost,
		MaterializeThreshold: 4,
		MaterializeCell:      1000,
	})
	graph := sched.New(rtm, app, sched.FIFO{})
	srv := New(rtm, app, graph, ds, ps, Options{Threads: 2, BlockOnExecuting: true})

	var late *query.Result
	rtm.Spawn("client", func(ctx rt.Ctx) {
		// Four disjoint queries in one cell; none can reuse another, so the
		// cell triggers a hint for their union after the fourth finishes.
		for i := int64(0); i < 4; i++ {
			tk, err := srv.Submit(testapp.Meta{DS: "d", Rect: geom.R(i*100, i*100, i*100+50, i*100+50)})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			tk.Wait(ctx)
		}
		// Give the materialized parent time to compute.
		ctx.Sleep(10 * time.Second)
		tk, _ := srv.Submit(testapp.Meta{DS: "d", Rect: geom.R(100, 0, 300, 200)})
		late = tk.Wait(ctx)
		srv.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ds.Stats(); st.MaterializeHints != 1 {
		t.Fatalf("MaterializeHints = %d, want 1", st.MaterializeHints)
	}
	if st := srv.Stats(); st.Materializations != 1 {
		t.Fatalf("Materializations = %d, want 1", st.Materializations)
	}
	if late == nil || late.ReusedFrac != 1 {
		t.Fatalf("late query inside the hot region: %+v, want full reuse from the materialized parent", late)
	}
}

// aggCommon derives a batch group's parent as the region its members share,
// so every member still has a remainder of its own to compute.
type aggCommon struct {
	*testapp.App
}

func (a *aggCommon) ParentMeta(samples []query.Meta, hot geom.Rect) (query.Meta, bool) {
	common := hot
	for _, s := range samples {
		common = common.Intersect(s.Region())
	}
	return testapp.Meta{DS: samples[0].Dataset(), Rect: common}, !common.Empty()
}

// TestBatchLeaderComputeSpanBytes pins what server/compute reports for a
// batch-group leader that computes a remainder next to its seed: the bytes
// that step read. The seed's bytes are on server/batch and, with the
// remainder's, on the root — so the two children add up to the root.
func TestBatchLeaderComputeSpanBytes(t *testing.T) {
	eng := sim.New()
	rtm := rt.NewSim(eng, 8)
	l := dataset.New("d", 1000, 1000, 1, 100)
	table := dataset.NewTable(l)
	app := &aggCommon{testapp.New(table)}
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2}, nil)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{})
	ds := datastore.New(app, datastore.Options{})
	graph := sched.New(rtm, app, sched.Batch{App: app})
	tracer := trace.NewTracer(rtm.Now, trace.TracerOptions{})
	srv := New(rtm, app, graph, ds, ps, Options{Threads: 1, BlockOnExecuting: true, Spans: tracer})

	rtm.Spawn("client", func(ctx rt.Ctx) {
		// Both are waiting when the one worker first runs, so it claims them
		// as one group; they share the middle page column.
		a, _ := srv.Submit(m(geom.R(0, 0, 200, 100)))
		b, _ := srv.Submit(m(geom.R(100, 0, 300, 100)))
		a.Wait(ctx)
		b.Wait(ctx)
		srv.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Spans()
	byID := map[uint64]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	inputBytes := func(s trace.Span) int64 {
		v, ok := s.AttrNum(trace.AttrInputBytes)
		if !ok {
			t.Fatalf("%s/%s has no %s", s.Subsystem, s.Op, trace.AttrInputBytes)
		}
		return int64(v)
	}
	var batch, compute, root int64
	for _, s := range spans {
		if s.Subsystem != trace.SubServer || s.Op != trace.OpBatch {
			continue
		}
		leader := byID[s.Parent]
		batch, root = inputBytes(s), inputBytes(leader)
		for _, c := range spans {
			if c.Parent == leader.ID && c.Op == trace.OpCompute {
				compute = inputBytes(c)
			}
		}
	}
	pageBytes := l.PageBytes(0)
	if batch != pageBytes || compute != pageBytes {
		t.Fatalf("batch read %d B, leader's compute %d B, want one %d B page each", batch, compute, pageBytes)
	}
	if batch+compute != root {
		t.Fatalf("batch %d + compute %d != root %d", batch, compute, root)
	}
}
