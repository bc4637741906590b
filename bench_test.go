// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) on the deterministic simulated runtime, and the wall-clock sweeps of
// the extensions on the real one.
package mqsched_test

import (
	"flag"
	"fmt"
	"sort"
	"testing"
	"time"

	"mqsched"

	"mqsched/internal/cluster"
	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/experiment"
	"mqsched/internal/geom"
	"mqsched/internal/load"
	"mqsched/internal/pagespace"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/testapp"
	"mqsched/internal/vm"
)

var paperScale = flag.Bool("paperscale", false, "run BenchmarkPaper at the paper's full 256-query scale")

var ops = []vm.Op{vm.Subsample, vm.Average}

// BenchmarkPaper runs every cell of experiment.Specs — the runs cmd/mqbench
// lays out as tables — as a sub-benchmark named <id>/<op>/<policy>/<value>,
// e.g. fig4/average/cf/T=8 or x1/subsample/cnbf/batch, and reports the
// columns read from it in their units (resp_s, overlap, batch_s, ratio, ...).
// -bench='Paper/fig7' runs one spec. The workload is reduced to 8 clients x
// 6 queries unless -paperscale asks for the paper's 16 x 16. Virtual time
// repeats exactly, so these only report: the goldens in internal/experiment
// pin the figures.
func BenchmarkPaper(b *testing.B) {
	base := experiment.Config{Clients: 8, QueriesPerClient: 6, Seed: 1}
	if *paperScale {
		base.Clients, base.QueriesPerClient = 16, 16
	}
	for _, s := range experiment.Specs {
		for _, op := range ops {
			if s.Ops != nil && op != ops[0] {
				continue // the spec covers its implementations itself
			}
			base.Op = op
			for _, c := range s.Cells(base) {
				b.Run(c.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m, err := c.Run()
						if err != nil {
							b.Fatal(err)
						}
						for _, mt := range c.Metrics {
							switch v := mt.Get(m).(type) {
							case float64:
								b.ReportMetric(v, mt.Unit)
							case int64:
								b.ReportMetric(float64(v), mt.Unit)
							}
						}
					}
				})
			}
		}
	}
}

// The sweeps below run on the wall clock, so their absolute numbers belong to
// the machine. What they can promise anywhere is a ratio of two arms of the
// same run, and each checks its own: a claim (this mechanism beats that one)
// fails the sweep below a floor of at least 1.0, written next to the ratio
// with the ten -benchtime=1x readings it was chosen from (no higher than
// 0.7 x the lowest); a ratio that cannot clear 1.0 under that rule is logged
// with noFloor, because "speedup >= 0.3" is not a check; a guard (the other
// arm must not collapse) keeps a bound below 1.0 and says so. DESIGN.md §3
// "Gating"; EXPERIMENTS.md "Extension measurements" holds the recorded
// medians. -v prints every ratio.
const noFloor = 0

// checkRatio logs num/den and fails the sweep when it is below floor. An arm
// a -bench filter left out reads zero, and its ratios are not evaluated.
func checkRatio(b *testing.B, what string, num, den, floor float64) {
	b.Helper()
	if num == 0 || den == 0 {
		return
	}
	r := num / den
	if r < floor {
		b.Fatalf("%s = %.2f, below its floor of %.2f", what, r, floor)
	}
	b.Logf("%s = %.2f (floor %.2f)", what, r, floor)
}

// scalingQPS runs the multi-core scaling workload once on the real (wall
// clock) runtime and returns queries completed per second. The workload is
// 64 disjoint 200x200 testapp tiles over a 2000x2000 dataset submitted by 8
// concurrent clients; tiles are disjoint so there is no result reuse and
// every query pays its own (simulated, time-scaled) I/O. Throughput then
// comes from overlapping that I/O across worker threads — serialization on
// the graph, server, or page-space locks shows up directly as a flat curve.
func scalingQPS(b *testing.B, threads int) float64 {
	b.Helper()
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.2})
	l := dataset.New("d", 2000, 2000, 1, 100)
	table := dataset.NewTable(l)
	app := testapp.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 16, ThrashPerStream: -1}, testapp.Generate)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 16 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 1}) // disjoint tiles: reuse impossible
	graph := sched.New(rtm, app, sched.FIFO{})
	srv := server.New(rtm, app, graph, ds, ps, server.Options{Threads: threads, DisableBlocking: true})

	const clients = 8
	const perClient = 8 // 8x8 = 64 tiles of the 10x10 grid
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		rtm.Spawn(fmt.Sprintf("client%d", c), func(ctx rt.Ctx) {
			tickets := make([]*server.Ticket, 0, perClient)
			for q := 0; q < perClient; q++ {
				x, y := int64(q)*200, int64(c)*200
				tk, err := srv.Submit(testapp.Meta{DS: "d", Rect: geom.R(x, y, x+200, y+200)})
				if err != nil {
					errs <- err
					return
				}
				tickets = append(tickets, tk)
			}
			for _, tk := range tickets {
				if res := tk.Wait(ctx); res.Blob == nil {
					errs <- fmt.Errorf("client %d: nil blob", c)
					return
				}
			}
			errs <- nil
		})
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	srv.Close()
	rtm.Wait()
	if got := srv.Stats().Completed; got != clients*perClient {
		b.Fatalf("completed %d of %d", got, clients*perClient)
	}
	return float64(clients*perClient) / elapsed.Seconds()
}

// BenchmarkScaling measures wall-clock query throughput of the full stack on
// the real runtime as the worker pool grows. Unlike the Fig4 benchmark
// (virtual time, one simulated clock), this runs real goroutines through the
// real locks, so it regresses when a global lock reappears on the hot path:
// the check is T=8 over T=1 in the same run, not qps against another machine.
func BenchmarkScaling(b *testing.B) {
	best := map[int]float64{}
	for _, th := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("T=%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qps := scalingQPS(b, th)
				if qps > best[th] {
					best[th] = qps
				}
				b.ReportMetric(qps, "qps")
			}
		})
	}
	// Claim: eight workers overlap the tiles' modelled I/O; a global lock on
	// the hot path reads about 1. Ten 1x readings: 6.12–10.24.
	const scalingFloor = 3.0
	checkRatio(b, "T=8 over T=1 qps", best[8], best[1], scalingFloor)
}

// largeQuerySecs runs n copies of one large VM query (4096x4096 at zoom 4,
// ~50 MB of pixels per query) through the full stack on the real runtime and
// returns the average seconds per query. Budgets are set so each query pays
// its own work: the datastore budget is 1 byte (no result reuse) and the
// page space budget is below the 784-page working set (no page reuse), so
// every query fetches all its chunks from the modelled 16-disk FIFO farm and
// runs the kernels over them. The query runs in one goroutine; with depth 0
// it reads one chunk at a time (the paper's synchronous reads), with depth
// > 0 it hints the next depth chunks before each read, and the page space
// fetches them in the background on the other disks.
func largeQuerySecs(b *testing.B, op vm.Op, depth, n int) float64 {
	b.Helper()
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.05})
	l := vm.NewSlide("s1", 4096, 4096)
	table := dataset.NewTable(l)
	app := vm.New(table)
	app.PrefetchDepth = depth
	farm := disk.NewFarm(rtm, disk.Config{Disks: 16, ThrashPerStream: -1}, vm.GeneratePage)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 16 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 1})
	graph := sched.New(rtm, app, sched.FIFO{})
	srv := server.New(rtm, app, graph, ds, ps, server.Options{Threads: 1, DisableBlocking: true})

	m := vm.NewMeta("s1", geom.R(0, 0, 4096, 4096), 4, op)
	done := make(chan error, 1)
	var elapsed time.Duration
	rtm.Spawn("client", func(ctx rt.Ctx) {
		start := time.Now()
		for i := 0; i < n; i++ {
			tk, err := srv.Submit(m)
			if err != nil {
				done <- err
				return
			}
			if res := tk.Wait(ctx); res.Blob == nil {
				done <- fmt.Errorf("nil blob")
				return
			}
		}
		elapsed = time.Since(start)
		done <- nil
	})
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	srv.Close()
	rtm.Wait()
	return elapsed.Seconds() / float64(n)
}

// BenchmarkLargeQueryReadAhead measures how one large query overlaps its
// modelled I/O: one query at a time on a single server thread and a single
// client, read synchronously (depth 0) and with read-ahead (depth 16), so any
// speedup comes only from the page space fetching the hinted chunks while
// the query waits on the current one.
func BenchmarkLargeQueryReadAhead(b *testing.B) {
	type key struct {
		op    vm.Op
		depth int
	}
	best := map[key]float64{}
	for _, op := range ops {
		for _, depth := range []int{0, 16} {
			k := key{op, depth}
			b.Run(fmt.Sprintf("%s/depth=%d", op, depth), func(b *testing.B) {
				b.SetBytes(4096 * 4096 * 3) // input pixels per query
				sec := largeQuerySecs(b, op, depth, b.N)
				if cur, ok := best[k]; !ok || sec < cur {
					best[k] = sec
				}
				b.ReportMetric(sec, "sec/query")
			})
		}
	}
	// Claim: read-ahead overlaps one query's reads across the farm.
	// Synchronous over read-ahead sec/query, ten 1x readings (2 vCPUs):
	// subsample 12.00–15.65, average 11.57–16.14.
	const readAheadFloor = 4.0
	for _, op := range ops {
		checkRatio(b, op.String()+" depth=0 over depth=16", best[key{op, 0}], best[key{op, 16}], readAheadFloor)
	}
}

// diskSweepPPS runs the disk-sweep workload once on the real (wall clock)
// runtime and returns pages read per second. Eight concurrent readers scan
// overlapping 256-page windows of one dataset, submitting their reads in
// 32-page batches through Farm.ReadPages. Under FIFO the interleaved streams
// destroy each spindle's sequentiality (every page pays a thrash-inflated
// random positioning); the elevator sorts each spindle's queue back into
// runs and merges adjacent pages into multi-page transfers billed one
// positioning each.
func diskSweepPPS(b *testing.B, sched disk.Sched) float64 {
	b.Helper()
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.02})
	l := dataset.New("d", 147*40, 147*40, 3, 147) // 1600 pages of 64827B
	farm := disk.NewFarm(rtm, disk.Config{Disks: 4, Sched: sched}, testapp.Generate)

	const readers = 8
	const perReader = 256
	const chunk = 32
	errs := make(chan error, readers)
	start := time.Now()
	for c := 0; c < readers; c++ {
		c := c
		rtm.Spawn(fmt.Sprintf("reader%d", c), func(ctx rt.Ctx) {
			base := c * 64 // overlapping windows: [base, base+256)
			for off := 0; off < perReader; off += chunk {
				pages := make([]int, chunk)
				for j := range pages {
					pages[j] = base + off + j
				}
				for _, data := range farm.ReadPages(ctx, l, pages) {
					if data == nil {
						errs <- fmt.Errorf("reader %d: nil page", c)
						return
					}
				}
			}
			errs <- nil
		})
	}
	for c := 0; c < readers; c++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	rtm.Wait()
	if sched == disk.SchedElevator && farm.Stats().MergedReads == 0 {
		b.Fatal("elevator arm did not merge any reads")
	}
	return float64(readers*perReader) / elapsed.Seconds()
}

// BenchmarkDiskSweep compares the two per-spindle service disciplines under
// concurrent overlapping scans on the real runtime: pages per second for
// FIFO (the paper's model) versus the elevator scheduler.
func BenchmarkDiskSweep(b *testing.B) {
	scheds := []disk.Sched{disk.SchedFIFO, disk.SchedElevator}
	best := map[disk.Sched]float64{}
	for _, sc := range scheds {
		b.Run(sc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pps := diskSweepPPS(b, sc)
				if pps > best[sc] {
					best[sc] = pps
				}
				b.ReportMetric(pps, "pages/s")
			}
		})
	}
	// Claim: the elevator reassembles the runs FIFO's interleaving destroys.
	// Ten 1x readings: 3.25–3.83.
	const elevatorFloor = 1.5
	checkRatio(b, "elevator over fifo pages/s", best[disk.SchedElevator], best[disk.SchedFIFO], elevatorFloor)
}

// cacheSweepStream builds the Zipfian multi-user browsing stream the cache
// policies are compared on: 200 users over 3 slides, skewed dataset and
// hotspot popularity, Poisson arrivals. Deterministic (fixed seeds).
func cacheSweepStream(rate float64, n int) ([]load.Item, int64) {
	const side = int64(30000)
	table := dataset.NewTable(
		vm.NewSlide("slide1", side, side),
		vm.NewSlide("slide2", side, side),
		vm.NewSlide("slide3", side, side),
	)
	items := load.Build(load.GenConfig{
		Users: 200, DatasetZipfS: 1.1, HotspotZipfS: 1.2, UserZipfS: 0.6,
		OutputSide: 512, Op: vm.Subsample, Seed: 1,
	}, table, load.ArrivalConfig{Process: load.Poisson, Rate: rate, Seed: 1}, n)
	return items, side
}

// cacheSweepRun replays one stream through the virtual-time stack under one
// cache policy and returns the load metrics. Virtual time makes the run
// deterministic: identical inputs give identical metrics on any machine.
func cacheSweepRun(b *testing.B, pol datastore.Policy, rate float64, n int) experiment.Metrics {
	b.Helper()
	items, side := cacheSweepStream(rate, n)
	warm := time.Duration(float64(n) / rate / 5 * float64(time.Second))
	m, err := experiment.RunWorkload(experiment.Config{
		Policy: "cnbf", Op: vm.Subsample, SlideSide: side,
		Config: mqsched.Config{DSBudget: 32 * experiment.MB, DSPolicy: pol},
	}, items, load.Open, warm)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCacheSweep compares the datastore cache policies (lru vs cost) on
// the Zipfian browsing workload at a fixed 32 MB DS budget across offered
// rates. Reported metrics: reused-bytes fraction (share of output bytes
// projected from cached results rather than recomputed) and the p95 of the
// simulated query latency. It runs in virtual time, so it only reports, like
// BenchmarkPaper: what holds the cost policy's figures still is
// goldenLoadCost in internal/experiment, to the bit.
func BenchmarkCacheSweep(b *testing.B) {
	const n = 800
	for _, pol := range []datastore.Policy{datastore.PolicyLRU, datastore.PolicyCost} {
		for _, rate := range []float64{50, 100, 200} {
			b.Run(fmt.Sprintf("%s/rate=%.0f", pol, rate), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := cacheSweepRun(b, pol, rate, n)
					b.ReportMetric(m.ReusedBytesFrac, "reused_frac")
					b.ReportMetric(m.P95, "p95_s")
				}
			})
		}
	}
}

// batchSweepHighStream is the high-overlap arm of the batch crossover:
// Zipf-sized bursts of near-duplicate averaging queries, each burst walking
// the zoom ladder coarse-to-fine (8, 4, 2) over jittered copies of one
// window, with every burst landing on its own fresh region of the slide.
// This is the shape per-query reuse amortizes worst: cached results only
// project to coarser zooms, so the coarse-first ladder forces a full
// from-raw compute per zoom, and under page-space pressure each of those
// passes regenerates the window's pages. The batch executor instead claims
// the whole burst at once, computes one parent at the gcd zoom touching
// each page exactly once, and fans every member out by projection. (Slow
// pan walks favour per-query reuse — the cache amortizes those
// incrementally — which is exactly the crossover this sweep plots.)
func batchSweepHighStream(side int64) []vm.Meta {
	sizes := []int{14, 11, 9, 8, 7, 6, 5, 4} // Zipf-ish burst fan-in, Σ = 64
	var qs []vm.Meta
	for b, sz := range sizes {
		baseX := (int64(b) % 4) * 2048
		baseY := (int64(b) / 4) * 4096
		for j := 0; j < sz; j++ {
			dx, dy := int64(j%3)*64, int64(j/3)*64
			zoom := []int64{8, 4, 2}[j%3]
			qs = append(qs, vm.NewMeta("s1",
				geom.R(baseX+dx, baseY+dy, baseX+dx+1536, baseY+dy+1536), zoom, vm.Average))
		}
	}
	return qs
}

// batchSweepLowStream is the low-overlap guard arm: pairwise-disjoint tiles,
// so every hotness is zero and the batch ranking must degrade to arrival
// order with no grouping overhead worth speaking of.
func batchSweepLowStream(side int64, n int) []vm.Meta {
	qs := make([]vm.Meta, 0, n)
	per := side / 512
	for i := 0; i < n; i++ {
		x, y := (int64(i)%per)*512, (int64(i)/per)*512
		qs = append(qs, vm.NewMeta("s1", geom.R(x, y, x+512, y+512), 2, vm.Average))
	}
	return qs
}

// batchSweepRun drains one query stream through the full stack on the real
// (wall clock) runtime under one ranking strategy and returns aggregate
// queries per second, the p95 response time in modelled seconds, and the
// number of multi-query batch groups formed.
func batchSweepRun(b *testing.B, pol string, qs []vm.Meta, side int64) (qps, p95 float64, groups int64) {
	b.Helper()
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.0002})
	table := dataset.NewTable(vm.NewSlide("s1", side, side))
	app := vm.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 4, ThrashPerStream: -1}, vm.GeneratePage)
	// The page space is deliberately smaller than one burst's raw footprint
	// (~10 MB): redundant passes over the same window pay regeneration, which
	// is the memory-pressure regime the batch executor exists for.
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 8 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 64 << 20})
	policy, ok := sched.ByName(pol, app)
	if !ok {
		b.Fatalf("unknown policy %q", pol)
	}
	graph := sched.New(rtm, app, policy)
	srv := server.New(rtm, app, graph, ds, ps, server.Options{Threads: 1, DisableBlocking: true})

	resp := make([]float64, len(qs))
	done := make(chan error, 1)
	start := time.Now()
	rtm.Spawn("sweep-client", func(ctx rt.Ctx) {
		tickets := make([]*server.Ticket, len(qs))
		for i, q := range qs {
			tk, err := srv.Submit(q)
			if err != nil {
				done <- err
				return
			}
			tickets[i] = tk
		}
		for i, tk := range tickets {
			res := tk.Wait(ctx)
			if res.Blob == nil {
				done <- fmt.Errorf("query %d: nil blob", i)
				return
			}
			resp[i] = res.ResponseTime().Seconds()
		}
		done <- nil
	})
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	srv.Close()
	rtm.Wait()

	sort.Float64s(resp)
	return float64(len(qs)) / elapsed.Seconds(),
		resp[int(0.95*float64(len(qs)-1))],
		srv.Stats().BatchGroups
}

// BenchmarkBatchSweep measures the crossover of the data-driven batch
// executor against the best per-query strategy (CNBF) on the real runtime:
// aggregate drain throughput on a high-overlap near-duplicate burst stream
// (where executing hot data once and fanning results out should win) and
// p95 response time on a pairwise-disjoint stream (where batch ranking
// degrades to arrival order and must not regress).
func BenchmarkBatchSweep(b *testing.B) {
	const side = int64(8192)
	const n = 64
	type key struct{ shape, pol string }
	type arm struct {
		qps, p95 float64
		groups   int64
	}
	streams := map[string][]vm.Meta{
		"high_overlap": batchSweepHighStream(side),
		"low_overlap":  batchSweepLowStream(side, n),
	}
	best := map[key]arm{}
	for _, shape := range []string{"high_overlap", "low_overlap"} {
		for _, pol := range []string{"cnbf", "batch"} {
			k := key{shape, pol}
			b.Run(fmt.Sprintf("%s/%s", shape, pol), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					qps, p95, groups := batchSweepRun(b, pol, streams[shape], side)
					if cur, ok := best[k]; !ok || qps > cur.qps {
						best[k] = arm{qps: qps, p95: p95, groups: groups}
					}
					b.ReportMetric(qps, "qps")
					b.ReportMetric(p95, "p95_s")
				}
			})
		}
	}
	high := best[key{"high_overlap", "batch"}]
	if high.qps > 0 && high.groups == 0 {
		b.Fatal("high-overlap batch arm formed no multi-query groups")
	}
	// Claim: one parent per burst drains the stream faster than a compute per
	// zoom. Ten 1x readings: 1.44–2.39, so 1.0 is as high as the floor goes.
	const batchGainFloor = 1.0
	checkRatio(b, "high overlap: batch over cnbf qps", high.qps, best[key{"high_overlap", "cnbf"}].qps, batchGainFloor)
	// Guard, not a claim: on disjoint tiles batch ranking is arrival order
	// and its p95 must not collapse. Ten 1x readings: 0.74–1.13; the bound is
	// the one the sweep has always been held to (batch p95 within 2.4x).
	const batchP95Guard = 0.41
	checkRatio(b, "low overlap: cnbf over batch p95", best[key{"low_overlap", "cnbf"}].p95, best[key{"low_overlap", "batch"}].p95, batchP95Guard)
}

// clusterSlides is the homogeneous slide fleet BenchmarkClusterSweep
// deploys: three large slides so the Zipfian dataset skew (s=1.1) leaves a
// clear hot dataset for routing policies to disagree over.
func clusterSlides() []mqsched.Slide {
	return []mqsched.Slide{
		{Name: "slide1", Width: 65536, Height: 65536},
		{Name: "slide2", Width: 65536, Height: 65536},
		{Name: "slide3", Width: 65536, Height: 65536},
	}
}

// clusterSweepRun boots an in-process cluster (router + N live Real-mode
// servers), offers a Zipfian open-loop stream scaled to the node count, and
// returns the load runner's summary for the arm.
func clusterSweepRun(b *testing.B, backends int, cellSize int64, perNode float64, warm, dur time.Duration) load.Summary {
	b.Helper()
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Backends: backends,
		Slides:   clusterSlides(),
		System: mqsched.Config{
			Policy:    "cnbf",
			Threads:   4,
			TimeScale: 0.004,
			DSBudget:  32 << 20,
			PSBudget:  16 << 20,
		},
		Router: cluster.Config{
			CellSize:       cellSize,
			SpillDepth:     4,
			HealthInterval: -1, // no failures injected; keep the arm quiet
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()

	table := mqsched.NewSlideTable(clusterSlides()...)
	gen := load.GenConfig{
		Users:              300,
		DatasetZipfS:       1.1,
		HotspotsPerDataset: 4,
		HotspotZipfS:       1.2,
		UserZipfS:          0.6,
		OutputSide:         128,
		Op:                 vm.Subsample,
		Seed:               1,
	}
	rate := perNode * float64(backends)
	n := int(rate * (warm + dur).Seconds())
	items := load.Build(gen, table, load.ArrivalConfig{Process: load.Poisson, Rate: rate, Seed: 1}, n)
	s, _, err := load.Run(load.RunnerConfig{
		Addrs:   []string{h.Addr},
		Workers: 32 * backends,
		Warmup:  warm,
	}, items, load.Open)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkClusterSweep measures horizontal scale-out through the region-
// affine router: achieved throughput and cache reuse at 1, 2, and 4 backends
// under an offered load proportional to the node count, plus a 4-backend
// dataset-hash arm showing why the affinity key includes the spatial cell
// (dataset hashing saturates the Zipf-hot backend; its spill overflow
// scatters overlapping sessions and costs reuse).
func BenchmarkClusterSweep(b *testing.B) {
	const perNode = 45.0
	warm, dur := time.Second, 3*time.Second
	// The dataset arm's cell is a whole slide: every window's centre falls
	// in cell 0,0, so the ring key is the dataset alone.
	type armKey struct {
		backends int
		routing  string
	}
	cells := map[string]int64{"affine": 0, "dataset": clusterSlides()[0].Width}
	sweep := []armKey{
		{1, "affine"},
		{2, "affine"},
		{4, "affine"},
		{4, "dataset"},
	}
	best := map[armKey]load.Summary{}
	for _, k := range sweep {
		b.Run(fmt.Sprintf("backends=%d/routing=%s", k.backends, k.routing), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := clusterSweepRun(b, k.backends, cells[k.routing], perNode, warm, dur)
				// Guards: a healthy cluster answers every query, and every arm
				// serves some of its bytes from cache.
				if res.Errors > 0 {
					b.Fatalf("%d query errors in a healthy cluster", res.Errors)
				}
				if res.AvgOverlap <= 0 {
					b.Fatal("arm reused nothing")
				}
				if cur, ok := best[k]; !ok || res.AchievedQPS > cur.AchievedQPS {
					best[k] = res
				}
				b.ReportMetric(res.AchievedQPS, "qps")
				b.ReportMetric(res.AvgOverlap, "reuse")
			}
		})
	}
	one, four := best[armKey{1, "affine"}], best[armKey{4, "affine"}]
	// No floor: every arm is offered 45 qps per node and keeps up, so this
	// reads the ratio of offered loads (4.79–4.84 in ten readings) whatever
	// the router does.
	checkRatio(b, "4 over 1 backends qps", four.AchievedQPS, one.AchievedQPS, noFloor)
	// No floor: ten 1x readings 0.99–1.08 (an earlier ten 0.85–1.15). Each
	// arm's reuse moves by more between runs than the arms differ.
	checkRatio(b, "affine over dataset reuse", four.AvgOverlap, best[armKey{4, "dataset"}].AvgOverlap, noFloor)
}
