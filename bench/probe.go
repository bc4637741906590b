package main

import (
	"net"
	"runtime"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/netproto"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/spatial"
	"mqsched/internal/vm"
)

// The probes call one layer's public API directly, outside any system,
// replaying the workload's own queries. They give the P-sourced metrics:
// what one operation of the layer costs at a stated size, in time and in
// allocations, with no queueing and nothing else running.

// timed runs fn ops times and returns microseconds and heap allocations per
// call.
func timed(ops int, fn func(i int)) (us, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / 1e3 / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// runProbes fills out with every P-sourced metric. table must hold the
// datasets the stream's queries name.
func runProbes(s stream, table *dataset.Table, scale float64, out map[string]float64) {
	ops := max(50, int(2000*scale))
	metas := make([]vm.Meta, 1024+ops)
	for i := range metas {
		metas[i] = s()
	}
	app := vm.New(table)
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 1e-9})

	// The graph probes churn the graph's R-tree, whose cost grows with every
	// delete on today's code (see probeSpatial), so they stay short.
	out["sched.insert_us_d16"], _, _ = probeSched(rtm, app, metas, 16, ops/8)
	out["sched.insert_us_d1k"], out["sched.dequeue_us_d1k"], out["sched.insert_allocs_d1k"] = probeSched(rtm, app, metas, 1024, ops/8)
	probeSpatial(metas, max(100, int(600*scale)), out)
	out["datastore.lookup_us_n100"], _ = probeDatastore(app, metas, 100, ops)
	out["datastore.lookup_us_n1k"], out["datastore.lookup_allocs_n1k"] = probeDatastore(app, metas, 1000, ops)
	rtm.Spawn("probe", func(ctx rt.Ctx) {
		probePagespace(ctx, rtm, out)
		probeKernels(ctx, out)
	})
	rtm.Wait()
	probeNetproto(max(20, int(300*scale)), out)
}

// probeSched times Graph insertion (Prepare + Enqueue: edge discovery and
// re-ranking) and Dequeue with `depth` queries waiting. Each timed insert is
// followed by a dequeue and a remove, so the depth holds.
func probeSched(rtm rt.Runtime, app *vm.App, metas []vm.Meta, depth, ops int) (insertUS, dequeueUS, allocs float64) {
	policy, _ := sched.ByName("cf", app)
	g := sched.New(rtm, app, policy)
	for _, m := range metas[:depth] {
		g.Insert(m)
	}
	var ins, deq time.Duration
	_, allocs = timed(ops, func(i int) {
		t0 := time.Now()
		g.Enqueue(g.Prepare(metas[depth+i]))
		t1 := time.Now()
		n := g.Dequeue()
		deq += time.Since(t1)
		ins += t1.Sub(t0)
		g.Remove(n)
	})
	return float64(ins.Nanoseconds()) / 1e3 / float64(ops), float64(deq.Nanoseconds()) / 1e3 / float64(ops), allocs
}

// probeSpatial churns an R-tree the way the scheduling graph and the data
// store do: a sliding set of 100 live rectangles, one insert and one delete
// per step. A correct tree still reaches exactly its live entries
// afterwards (reachable_per_live == 1). Today's tree does not, and the excess
// compounds, so the churn stops early once a search reaches blowUp times the
// live set: the probe must end on every seed.
func probeSpatial(metas []vm.Meta, pairs int, out map[string]float64) {
	const live, blowUp, batch = 100, 200, 50
	t := spatial.NewTree[int]()
	for i := 0; i < live; i++ {
		t.Insert(metas[i].Rect, i)
	}
	everything := geom.R(0, 0, 1<<40, 1<<40)
	reachable := func() float64 { return ratio(float64(len(t.Search(everything, nil))), float64(t.Len())) }
	var us, allocs float64
	done := 0
	for done < pairs && reachable() < blowUp {
		u, a := timed(batch, func(i int) {
			t.Insert(metas[live+done+i].Rect, live+done+i)
			t.Delete(metas[done+i].Rect, done+i)
		})
		us, allocs = us+u*batch, allocs+a*batch
		done += batch
	}
	out["spatial.reachable_per_live"] = reachable()
	out["spatial.churn_us_per_op"] = ratio(us, float64(2*done))
	out["spatial.churn_allocs_per_op"] = ratio(allocs, float64(2*done))
}

// probeDatastore times Lookup against a store of n results (sizes only, no
// pixels), probing with the queries that follow them in the stream.
func probeDatastore(app *vm.App, metas []vm.Meta, n, ops int) (us, allocs float64) {
	ds := datastore.New(app, datastore.Options{Budget: 1 << 50})
	for _, m := range metas[:n] {
		ds.Insert(&query.Blob{Meta: m, Size: app.QOutSize(m)})
	}
	return timed(ops, func(i int) {
		for _, c := range ds.Lookup(metas[n+i], 0.01) {
			c.Entry.Unpin()
		}
	})
}

// probePagespace times ReadPage on a resident page: the hit path every raw
// pixel goes through (about 24 times per scan_mem query).
func probePagespace(ctx rt.Ctx, rtm rt.Runtime, out map[string]float64) {
	table := realTable()
	ps := pagespace.New(rtm, table, disk.NewFarm(rtm, disk.Config{}, vm.GeneratePage), pagespace.Options{Budget: psBudget << 20})
	pages := table.Get("slide1").NumPages()
	for p := 0; p < pages; p++ {
		ps.ReadPage(ctx, "slide1", p)
	}
	out["pagespace.hit_us"], out["pagespace.hit_allocs"] = timed(200*pages, func(i int) {
		ps.ReadPage(ctx, "slide1", i%pages)
	})
}

// residentPages serves pre-generated pages with no cache in between, so the
// kernel probes time the kernels alone.
type residentPages map[int][]byte

func (r residentPages) ReadPage(_ rt.Ctx, _ string, page int) []byte { return r[page] }

// probeKernels times the pixel kernels on the real workloads' shapes:
// scan_mem's 512² → 256² average, browse's 2048² → 512² subsample, and the
// projection of a zoom-2 browse result into an overlapping zoom-4 one.
// Rates are input megabytes per second.
func probeKernels(ctx rt.Ctx, out map[string]float64) {
	table := realTable()
	app := vm.New(table)
	app.Parallelism = 1
	l := table.Get("slide1")
	raw := func(m vm.Meta, rounds int) float64 {
		pages := residentPages{}
		for _, p := range l.PagesInRect(m.Rect) {
			pages[p] = vm.GeneratePage(l, p)
		}
		blob := app.NewBlob(ctx, m)
		var read int64
		us, _ := timed(rounds, func(int) { read = app.ComputeRaw(ctx, m, m.OutRect(), blob, pages) })
		return ratio(float64(read)/(1<<20), us/1e6)
	}
	out["vm.average_mb_s"] = raw(vm.NewMeta("slide1", geom.R(512, 512, 1024, 1024), 2, vm.Average), 400)
	out["vm.subsample_mb_s"] = raw(vm.NewMeta("slide1", geom.R(1024, 1024, 3072, 3072), 4, vm.Subsample), 100)

	src := vm.NewMeta("slide1", geom.R(1024, 1024, 2048, 2048), 2, vm.Subsample)
	dst := vm.NewMeta("slide1", geom.R(512, 512, 2560, 2560), 4, vm.Subsample)
	srcBlob, dstBlob := app.NewBlob(ctx, src), app.NewBlob(ctx, dst)
	us, _ := timed(2000, func(int) { app.Project(ctx, srcBlob, dst, dstBlob) })
	out["vm.project_mb_s"] = ratio(float64(srcBlob.Size)/(1<<20), us/1e6)
}

// cannedHandler answers every request with the same reply: the wire cost
// with no server behind it.
type cannedHandler struct{ resp *netproto.Response }

func (h cannedHandler) Answer(*netproto.Request, netproto.ConnInfo) *netproto.Response { return h.resp }

// probeNetproto times one client round trip over loopback against a canned
// handler: a PING-sized reply, and a reply carrying the browse workloads'
// 768 KB image.
func probeNetproto(rounds int, out map[string]float64) {
	roundTrip := func(resp *netproto.Response, rounds int) (us, allocKB float64) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			netproto.ServeHandler(l, cannedHandler{resp}, func(string, ...any) {})
		}()
		cl := netproto.NewClient(l.Addr().String(), 0)
		req := &netproto.Request{Slide: "slide1", X1: 512, Y1: 512, Zoom: 1, Op: "subsample"}
		cl.Do(req) // dial, and let gob exchange its type descriptions
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		us, _ = timed(rounds, func(int) { cl.Do(req) })
		runtime.ReadMemStats(&after)
		cl.Close()
		l.Close()
		<-served
		return us, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(rounds)
	}
	out["netproto.rtt_us_ping"], _ = roundTrip(&netproto.Response{Ping: &netproto.PingInfo{Role: "server"}}, 10*rounds)
	us, kb := roundTrip(&netproto.Response{Width: 512, Height: 512, Pixels: make([]byte, 512*512*3)}, rounds)
	out["netproto.rtt_ms_768k"], out["netproto.alloc_kb_per_rt_768k"] = us/1e3, kb
}
