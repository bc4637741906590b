package mqsched_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mqsched"
	"mqsched/internal/cluster"
	"mqsched/internal/dataset"
	"mqsched/internal/experiment"
	"mqsched/internal/geom"
	"mqsched/internal/load"
	"mqsched/internal/netproto"
	"mqsched/internal/testapp"
	"mqsched/internal/vm"
	"mqsched/internal/vol"
)

// repeatOutputSide is the output edge of the repeat streams: 48 KB images,
// small enough that a few hundred oracle renders take well under a second.
const repeatOutputSide = 128

// repeatTable is two 2048² slides: the zoom-8 rung still fits a 1024² window.
func repeatTable() *dataset.Table {
	return mqsched.NewSlideTable(
		mqsched.Slide{Name: "s1", Width: 2048, Height: 2048},
		mqsched.Slide{Name: "s2", Width: 2048, Height: 2048})
}

// repeatStream is n queries of a seeded subsampled browse by a few users who
// zoom in and back out and jump between two hotspots per slide: exact
// repeats of cached results, zoom ladders and pans. Subsample-of-subsample
// is exact at every zoom, so every answer must equal the oracle byte for
// byte whichever path produced it.
func repeatStream(users, n int) []load.Item {
	return load.Build(load.GenConfig{
		Users:              users,
		HotspotsPerDataset: 2,
		HotspotZipfS:       1.2,
		OutputSide:         repeatOutputSide,
		Zooms:              []int64{1, 2, 4, 8},
		Op:                 vm.Subsample,
		Seed:               7,
	}, repeatTable(), load.ArrivalConfig{Process: load.Constant, Rate: 1000, Seed: 7}, n)
}

// replayOne answers the stream on a fresh real-runtime system as one user,
// one query at a time, and returns the answers with the system's counters.
func replayOne(t *testing.T, cfg mqsched.Config, items []load.Item) ([]experiment.Done, mqsched.Stats) {
	t.Helper()
	sys, err := mqsched.New(cfg, repeatTable())
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]mqsched.VMQuery, len(items))
	for i, it := range items {
		qs[i] = it.Meta.(mqsched.VMQuery)
	}
	done, err := experiment.Replay(sys, load.FromClients([][]mqsched.VMQuery{qs}), load.Closed(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(qs) {
		t.Fatalf("%d of %d queries answered", len(done), len(qs))
	}
	return done, sys.Stats()
}

// TestExactRepeatAccountingPinned pins what the server decides on a browse
// with exact repeats, one query at a time on one query thread, whether the
// pixels move serially or concurrently: every answer equals the oracle, and
// the reuse counters and the data store's inserts and evictions equal the
// constants below. How an answer's bytes are produced may change; which
// results are reused, stored and evicted may not.
func TestExactRepeatAccountingPinned(t *testing.T) {
	qs := repeatStream(2, 300)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", procs), func(t *testing.T) {
			testapp.SetGOMAXPROCS(t, procs)
			done, st := replayOne(t, mqsched.Config{
				Mode:      mqsched.Real,
				Threads:   1,
				TimeScale: 1e-9,
				DSBudget:  6 * repeatOutputSide * repeatOutputSide * vm.BytesPerPixel,
			}, qs)
			for _, d := range done {
				if !bytes.Equal(d.Blob.Data, vm.RenderOracle(d.Item.Meta.(mqsched.VMQuery))) {
					t.Errorf("query %d (%v): pixels differ from the oracle", d.Seq, d.Item.Meta)
				}
			}
			got := [6]int64{st.Server.FullHits, st.Server.Projections, st.Server.ReusedOutputBytes,
				st.Server.ComputedOutputBytes, st.DataStore.Inserts, st.DataStore.Evictions}
			want := [6]int64{24, 504, 8045358, 6700242, 300, 294}
			if got != want {
				t.Errorf("full hits, projections, reused bytes, computed bytes, inserts, evictions = %v, want %v", got, want)
			}
		})
	}
}

// TestResultsUnchangedAfterReturn: once a query is answered its pixels never
// change, though exact repeats share cached bytes and the data store evicts
// under them. Eight users browse concurrently on four query threads with
// concurrent pixel work; every answer is hashed as it returns and again after
// the last one.
func TestResultsUnchangedAfterReturn(t *testing.T) {
	testapp.SetGOMAXPROCS(t, 4)
	sys, err := mqsched.New(mqsched.Config{
		Mode:      mqsched.Real,
		Threads:   4,
		TimeScale: 1e-9,
		DSBudget:  4 * repeatOutputSide * repeatOutputSide * vm.BytesPerPixel,
	}, repeatTable())
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		res  *mqsched.Result
		hash uint64
	}
	var mu sync.Mutex
	var answers []answer
	items := repeatStream(8, 240)
	for _, list := range load.ByUser(items) {
		sys.Start(fmt.Sprint("user-", list[0].User), func(ctx mqsched.Ctx) {
			for _, it := range list {
				tk, err := sys.Submit(it.Meta)
				if err != nil {
					t.Error(err)
					return
				}
				res := tk.Wait(ctx)
				h := pixelHash(res.Blob.Data)
				mu.Lock()
				answers = append(answers, answer{res, h})
				mu.Unlock()
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(items) {
		t.Fatalf("%d of %d queries answered", len(answers), len(items))
	}
	for _, a := range answers {
		if got := pixelHash(a.res.Blob.Data); got != a.hash {
			t.Errorf("%v: pixels changed after the answer returned", a.res.Meta)
		}
	}
	st := sys.Stats()
	if st.Server.SharedOutputs == 0 || st.DataStore.Evictions == 0 {
		t.Errorf("shared outputs %d, evictions %d: the run does not share bytes under eviction",
			st.Server.SharedOutputs, st.DataStore.Evictions)
	}
}

// TestRecycledBytesOverwritten: an output that takes a recycled buffer
// writes every byte of it, in every application. The free list scribbles
// 0xA5 over each buffer it takes in, and every answer is checked against its
// oracle and then released, which is what hands its bytes back. Held and free
// bytes share the data store budget, so a store only a few outputs deep
// keeps few spare buffers; the stores here are sized so that about half the
// outputs are recycled, except the batch arm's.
func TestRecycledBytesOverwritten(t *testing.T) {
	testapp.SetGOMAXPROCS(t, 4)
	// The batch strategy fans a group's seed out to its members, which read
	// it unpinned while the seed's own hold keeps it from being recycled. Its
	// store is four outputs deep, so a seed's entry is often evicted while
	// the group still reads the seed. A group forms only from queries waiting
	// when a thread claims, so its stream has sixteen users to keep about
	// twelve queries waiting behind the four threads: with eight, how many
	// waited was timing, and some runs formed no seed at all.
	for _, arm := range []struct {
		policy  string
		users   int
		outputs int64
	}{{"cf", 8, 32}, {"batch", 16, 4}} {
		t.Run("vm/"+arm.policy, func(t *testing.T) {
			sys, err := mqsched.New(mqsched.Config{
				Mode:      mqsched.Real,
				Policy:    arm.policy,
				Threads:   4,
				TimeScale: 1e-9,
				DSBudget:  arm.outputs * repeatOutputSide * repeatOutputSide * vm.BytesPerPixel,
			}, repeatTable())
			if err != nil {
				t.Fatal(err)
			}
			var users [][]mqsched.Meta
			for _, list := range load.ByUser(repeatStream(arm.users, 240)) {
				var qs []mqsched.Meta
				for _, it := range list {
					qs = append(qs, it.Meta)
				}
				users = append(users, qs)
			}
			st := checkRecycled(t, sys, users, func(m mqsched.Meta) []byte { return vm.RenderOracle(m.(vm.Meta)) })
			if arm.policy == "batch" && st.Server.BatchFanouts == 0 {
				t.Error("no group member projected a seed")
			}
		})
	}

	t.Run("vol", func(t *testing.T) {
		app := vol.New()
		dims := vol.Dims{Width: 256, Height: 256, Depth: 4}
		table := dataset.NewTable(app.Add("v", dims))
		app.Finish(table)
		sys, err := mqsched.NewWithGenerator(mqsched.Config{
			Mode: mqsched.Real, Threads: 4, TimeScale: 1e-9, App: app,
			DSBudget: 32 * 64 * 64,
		}, table, app.Generator())
		if err != nil {
			t.Fatal(err)
		}
		// 128² windows on a 64-pixel lattice at zooms 1, 2 and 4: repeats,
		// zoom ladders and half-overlapping pans, whose outputs are partly
		// projected into a recycled buffer and partly computed into it.
		rng := rand.New(rand.NewSource(5))
		users := make([][]mqsched.Meta, 4)
		for u := range users {
			for range 40 {
				x, y := 64*rng.Int63n(3), 64*rng.Int63n(3)
				op, zoom := vol.MIP, []int64{1, 2, 4}[rng.Intn(3)]
				if rng.Intn(3) == 0 {
					op, zoom = vol.MeanZ, 2
				}
				users[u] = append(users[u], vol.NewMeta("v", dims, geom.R(x, y, x+128, y+128), 0, 4, zoom, op))
			}
		}
		checkRecycled(t, sys, users, func(m mqsched.Meta) []byte { return vol.RenderOracle(m.(vol.Meta), dims) })
	})

	t.Run("testapp", func(t *testing.T) {
		table := dataset.NewTable(dataset.New("d", 512, 512, 1, 64))
		sys, err := mqsched.NewWithGenerator(mqsched.Config{
			Mode: mqsched.Real, Threads: 4, TimeScale: 1e-9, App: testapp.New(table),
			DSBudget: 8 * 96 * 96,
		}, table, testapp.Generate)
		if err != nil {
			t.Fatal(err)
		}
		// 96² scans on a 32-pixel lattice: exact repeats and overlaps that
		// cut the output at every offset.
		rng := rand.New(rand.NewSource(5))
		users := make([][]mqsched.Meta, 4)
		for u := range users {
			for range 60 {
				x, y := 32*rng.Int63n(4), 32*rng.Int63n(4)
				users[u] = append(users[u], testapp.Meta{DS: "d", Rect: geom.R(x, y, x+96, y+96)})
			}
		}
		checkRecycled(t, sys, users, func(m mqsched.Meta) []byte {
			r := m.(testapp.Meta).Rect
			want := make([]byte, 0, r.Area())
			for y := r.Y0; y < r.Y1; y++ {
				for x := r.X0; x < r.X1; x++ {
					want = append(want, testapp.Pixel("d", x, y))
				}
			}
			return want
		})
	})
}

// checkRecycled runs one client per list on sys, scribbling over freed
// buffers, checks every answer against oracle before releasing it, and
// fails unless some output took a recycled buffer. It returns the system's
// counters.
func checkRecycled(t *testing.T, sys *mqsched.System, users [][]mqsched.Meta, oracle func(mqsched.Meta) []byte) mqsched.Stats {
	t.Helper()
	mqsched.ScribbleFreed(sys, 0xA5)
	for i, list := range users {
		sys.Start(fmt.Sprint("user-", i), func(ctx mqsched.Ctx) {
			for _, m := range list {
				tk, err := sys.Submit(m)
				if err != nil {
					t.Error(err)
					return
				}
				res := tk.Wait(ctx)
				if !bytes.Equal(res.Blob.Data, oracle(m)) {
					t.Errorf("%v: pixels differ from the oracle", m)
				}
				sys.Release(res)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.DataStore.RecycledBuffers == 0 {
		t.Fatalf("no output took a recycled buffer (%d completed, %d evictions)", st.Server.Completed, st.DataStore.Evictions)
	}
	t.Logf("%d of %d outputs recycled, %d shared, %d seed fan-outs", st.DataStore.RecycledBuffers, st.Server.Completed,
		st.Server.SharedOutputs, st.Server.BatchFanouts)
	return st
}

// TestWireRepliesUnderRecycling: a backend releases each result once its
// reply is written, so its outputs cycle through a data store that evicts
// all the time, while four clients browse through the router (the
// benchmark's Zipf browse, 512² replies). Every reply must equal the oracle:
// a buffer recycled while a reply or a projection still reads it shows here,
// and under the race detector as a race. -short sends a third of the
// queries; CI's race job runs the whole stream.
func TestWireRepliesUnderRecycling(t *testing.T) {
	const clients = 4
	queries := int64(1500)
	if testing.Short() {
		queries = 500
	}
	slides := []mqsched.Slide{
		{Name: "slide1", Width: 4096, Height: 4096},
		{Name: "slide2", Width: 4096, Height: 4096},
		{Name: "slide3", Width: 4096, Height: 4096},
	}
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Backends: 2,
		Slides:   slides,
		System:   mqsched.Config{TimeScale: 1e-9, DSBudget: 16 << 20},
		Router:   cluster.Config{HealthInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, sys := range h.Systems {
		mqsched.ScribbleFreed(sys, 0xA5)
	}
	g := load.NewGenerator(load.GenConfig{
		Users:              200,
		DatasetZipfS:       1.1,
		HotspotZipfS:       1.2,
		UserZipfS:          0.6,
		HotspotsPerDataset: 4,
		OutputSide:         512,
		Zooms:              []int64{1, 2, 4, 8},
		Op:                 vm.Subsample,
		Seed:               1,
	}, mqsched.NewSlideTable(slides...))
	ms := make([]vm.Meta, queries)
	for i := range ms {
		_, ms[i] = g.Next()
	}
	var next, wrong atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := netproto.NewClient(h.Addr, 0)
			defer c.Close()
			for i := next.Add(1) - 1; i < queries; i = next.Add(1) - 1 {
				m := ms[i]
				resp, err := c.Do(&netproto.Request{Slide: m.DS, X0: m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
					Zoom: m.Zoom, Op: m.Op.String()})
				if err == nil && resp.Err != "" {
					err = errors.New(resp.Err)
				}
				if err != nil {
					t.Errorf("query %d (%v): %v", i, m, err)
					return
				}
				if !bytes.Equal(resp.Pixels, vm.RenderOracle(m)) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d of %d replies differ from the oracle", n, queries)
	}
	var evictions, recycled int64
	for _, sys := range h.Systems {
		st := sys.Stats().DataStore
		evictions += st.Evictions
		recycled += st.RecycledBuffers
	}
	if evictions == 0 || recycled == 0 {
		t.Errorf("evictions %d, recycled buffers %d: the run does not recycle under eviction", evictions, recycled)
	}
	t.Logf("%d queries: %d evictions, %d recycled buffers", queries, evictions, recycled)
}

// pixelHash is FNV-1a over an answer's pixels.
func pixelHash(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
