package mqsched_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/experiment"
	"mqsched/internal/load"
	"mqsched/internal/vm"
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
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			done, st := replayOne(t, mqsched.Config{
				Mode:               mqsched.Real,
				Threads:            1,
				TimeScale:          1e-9,
				DSBudget:           6 * repeatOutputSide * repeatOutputSide * vm.BytesPerPixel,
				ComputeParallelism: par,
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
	sys, err := mqsched.New(mqsched.Config{
		Mode:               mqsched.Real,
		Threads:            4,
		TimeScale:          1e-9,
		DSBudget:           4 * repeatOutputSide * repeatOutputSide * vm.BytesPerPixel,
		ComputeParallelism: 4,
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

// pixelHash is FNV-1a over an answer's pixels.
func pixelHash(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
