package server

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/vm"
)

// vmServer wires a Virtual Microscope server over one 2048² slide on the
// real runtime: one query thread, a null device and room for every result.
func vmServer(rtm *rt.RealRuntime, policy func(query.App) sched.Policy) *Server {
	table := dataset.NewTable(vm.NewSlide("s1", 2048, 2048))
	app := vm.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2}, vm.GeneratePage)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 16 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 16 << 20})
	return New(rtm, app, sched.New(rtm, app, policy(app)), ds, ps, Options{Threads: 1})
}

// inProc runs fn as a process of rtm and waits for it to return.
func inProc(rtm *rt.RealRuntime, fn func(ctx rt.Ctx)) {
	done := make(chan struct{})
	rtm.Spawn("test", func(ctx rt.Ctx) {
		defer close(done)
		fn(ctx)
	})
	<-done
}

// ask answers m and reports the bytes the process allocated from Submit to
// the answer.
func ask(t *testing.T, rtm *rt.RealRuntime, srv *Server, m vm.Meta) (res *query.Result, alloc uint64) {
	t.Helper()
	inProc(rtm, func(ctx rt.Ctx) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tk, err := srv.Submit(m)
		if err != nil {
			t.Error(err)
			return
		}
		res = tk.Wait(ctx)
		runtime.ReadMemStats(&after)
		alloc = after.TotalAlloc - before.TotalAlloc
	})
	if res == nil {
		t.FailNow()
	}
	if !bytes.Equal(res.Blob.Data, vm.RenderOracle(m)) {
		t.Fatalf("%v: pixels differ from the oracle", m)
	}
	return res, alloc
}

// sameBytes reports whether a and b share one backing array.
func sameBytes(a, b []byte) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// TestExactRepeatSharesCachedBytes: an exact repeat of a cached result is
// answered with that result's bytes — no output allocated, zeroed or copied —
// while a hit that has to transform the cached pixels (a contained window at
// the same zoom, the next rung of a zoom ladder) still gets bytes of its own.
// A batch group's parent aggregate is produced by the same fill as a query's
// output, so a seed equal to one the data store still holds shares too.
func TestExactRepeatSharesCachedBytes(t *testing.T) {
	t.Run("query", testRepeatQueryShares)
	t.Run("batch seed", testRepeatSeedShares)
}

func testRepeatQueryShares(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 1e-9})
	srv := vmServer(rtm, func(query.App) sched.Policy { return sched.FIFO{} })
	defer func() { srv.Close(); rtm.Wait() }()

	q := vm.NewMeta("s1", geom.R(0, 0, 1024, 1024), 2, vm.Subsample) // 768 KB of output
	first, _ := ask(t, rtm, srv, q)
	repeat, alloc := ask(t, rtm, srv, q)
	if !sameBytes(repeat.Blob.Data, first.Blob.Data) {
		t.Error("the repeat got bytes of its own, not the cached result's")
	}
	if repeat.ReusedFrac != 1 {
		t.Errorf("repeat ReusedFrac = %v, want 1", repeat.ReusedFrac)
	}
	if limit := uint64(repeat.Blob.Size / 8); alloc >= limit {
		t.Errorf("the repeat allocated %d bytes, want < %d (an eighth of its output)", alloc, limit)
	}

	for _, m := range []vm.Meta{
		vm.NewMeta("s1", geom.R(256, 256, 768, 768), 2, vm.Subsample), // contained, same zoom
		vm.NewMeta("s1", geom.R(0, 0, 1024, 1024), 4, vm.Subsample),   // the next rung up
	} {
		res, _ := ask(t, rtm, srv, m)
		if res.ReusedFrac != 1 {
			t.Errorf("%v: ReusedFrac = %v, want 1", m, res.ReusedFrac)
		}
		if sameBytes(res.Blob.Data, first.Blob.Data) {
			t.Errorf("%v shares the cached bytes of %v", m, q)
		}
	}
	if st := srv.Stats(); st.SharedOutputs != 1 || st.Projections != 3 {
		t.Errorf("SharedOutputs, Projections = %d, %d, want 1, 3", st.SharedOutputs, st.Projections)
	}
}

func testRepeatSeedShares(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 1e-9})
	srv := vmServer(rtm, func(app query.App) sched.Policy { return sched.Batch{App: app} })
	defer func() { srv.Close(); rtm.Wait() }()

	group := func() []*sched.Node {
		var g []*sched.Node
		for _, r := range []geom.Rect{geom.R(0, 0, 512, 512), geom.R(512, 0, 1024, 512)} {
			m := vm.NewMeta("s1", r, 2, vm.Subsample)
			n := srv.graph.Prepare(m)
			n.Payload = &task{res: &query.Result{Meta: m}}
			g = append(g, n)
		}
		return g
	}
	var first, again *query.Blob
	inProc(rtm, func(ctx rt.Ctx) {
		first = srv.seed(ctx, group())
		again = srv.seed(ctx, group())
	})
	if first == nil || again == nil {
		t.Fatal("the group computed no seed")
	}
	if !bytes.Equal(again.Data, vm.RenderOracle(again.Meta.(vm.Meta))) {
		t.Fatal("the repeated seed's pixels differ from the oracle")
	}
	if !sameBytes(again.Data, first.Data) {
		t.Error("the repeated seed got bytes of its own, not the cached seed's")
	}
	if st := srv.Stats(); st.SharedOutputs != 1 {
		t.Errorf("SharedOutputs = %d, want 1", st.SharedOutputs)
	}
}

// TestReleaseRecyclesOnlyUnheldBytes follows one buffer through its holders:
// the result it was made for, an exact repeat sharing it, and the two data
// store entries of those. It reaches the free list only when the last of
// them lets go, and the next output of its size takes it.
func TestReleaseRecyclesOnlyUnheldBytes(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 1e-9})
	srv := vmServer(rtm, func(query.App) sched.Policy { return sched.FIFO{} })
	defer func() { srv.Close(); rtm.Wait() }()

	q := vm.NewMeta("s1", geom.R(0, 0, 1024, 1024), 2, vm.Subsample)
	first, _ := ask(t, rtm, srv, q)
	repeat, _ := ask(t, rtm, srv, q)
	data, size := first.Blob.Data, first.Blob.Size
	if !sameBytes(repeat.Blob.Data, data) || repeat.Blob.Buf != first.Blob.Buf {
		t.Fatal("the repeat does not share the first answer's buffer")
	}
	free := func() int64 { return srv.ds.Stats().FreeBytes }

	srv.Release(first)
	if first.Blob != nil {
		t.Error("Release left the result's Blob in place")
	}
	for _, c := range srv.ds.Lookup(q, 1) {
		c.Entry.Unpin()
		srv.ds.Drop(c.Entry)
	}
	if free() != 0 {
		t.Fatalf("free bytes %d while the repeat's result still holds them", free())
	}
	srv.Release(repeat)
	if free() != size {
		t.Fatalf("free bytes %d after the last holder let go, want %d", free(), size)
	}

	other, _ := ask(t, rtm, srv, vm.NewMeta("s1", geom.R(1024, 1024, 2048, 2048), 2, vm.Subsample))
	if !sameBytes(other.Blob.Data, data) {
		t.Error("the next output of the same size did not take the freed buffer")
	}
	if st := srv.ds.Stats(); st.RecycledBuffers != 1 || st.FreeBytes != 0 {
		t.Errorf("RecycledBuffers, FreeBytes = %d, %d, want 1, 0", st.RecycledBuffers, st.FreeBytes)
	}
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	srv.Release(repeat)
}
