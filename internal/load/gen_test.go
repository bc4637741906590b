package load

import (
	"reflect"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/vm"
)

func testTable() *dataset.Table {
	return dataset.NewTable(
		vm.NewSlide("slide1", 16384, 16384),
		vm.NewSlide("slide2", 16384, 16384),
		vm.NewSlide("slide3", 16384, 16384),
	)
}

func testGenConfig() GenConfig {
	return GenConfig{
		Users: 200, DatasetZipfS: 1.1, HotspotZipfS: 1.2, UserZipfS: 0.6,
		OutputSide: 512, Op: vm.Subsample, Seed: 1,
	}
}

// TestBuildDeterministic is the acceptance-criterion test: identical seed
// and config reproduce the identical query stream, bit for bit.
func TestBuildDeterministic(t *testing.T) {
	ar := ArrivalConfig{Process: Poisson, Rate: 100, Seed: 1}
	a := Build(testGenConfig(), testTable(), ar, 2000)
	b := Build(testGenConfig(), testTable(), ar, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical config produced different streams")
	}
	cfg := testGenConfig()
	cfg.Seed = 2
	c := Build(cfg, testTable(), ar, 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the identical stream")
	}
}

// TestBuildQueriesValid checks every generated query is in-bounds,
// zoom-aligned, non-empty, and arrivals are strictly increasing.
func TestBuildQueriesValid(t *testing.T) {
	table := testTable()
	items := Build(testGenConfig(), table, ArrivalConfig{Process: Burst, Rate: 200, Seed: 2}, 5000)
	var prev time.Duration
	for i, it := range items {
		if it.Seq != i {
			t.Fatalf("item %d has seq %d", i, it.Seq)
		}
		if it.At <= prev {
			t.Fatalf("item %d arrival %v not after %v", i, it.At, prev)
		}
		prev = it.At
		m := it.Meta.(vm.Meta)
		l, ok := table.Lookup(m.DS)
		if !ok {
			t.Fatalf("item %d references unknown dataset %q", i, m.DS)
		}
		r := m.Rect
		if r.Empty() || !l.Bounds().Contains(r) {
			t.Fatalf("item %d window %v empty or outside %v", i, r, l.Bounds())
		}
		z := m.Zoom
		if r.X0%z != 0 || r.Y0%z != 0 || r.Dx()%z != 0 || r.Dy()%z != 0 {
			t.Fatalf("item %d window %v not aligned to zoom %d", i, r, z)
		}
	}
}

// TestDatasetSkew checks Zipf dataset popularity orders query volume by
// dataset rank.
func TestDatasetSkew(t *testing.T) {
	cfg := testGenConfig()
	cfg.Users = 2000
	items := Build(cfg, testTable(), ArrivalConfig{Process: Constant, Rate: 100}, 20000)
	counts := map[string]int{}
	for _, it := range items {
		counts[it.Meta.Dataset()]++
	}
	if !(counts["slide1"] > counts["slide2"] && counts["slide2"] > counts["slide3"]) {
		t.Fatalf("dataset popularity not Zipf-ordered: %v", counts)
	}
	if counts["slide1"] < 2*counts["slide3"] {
		t.Errorf("skew too weak for s=1.1: %v", counts)
	}
}

// TestUserSkew checks a minority of users issues the majority of queries
// under a Zipf activity distribution.
func TestUserSkew(t *testing.T) {
	cfg := testGenConfig()
	cfg.UserZipfS = 1.1
	items := Build(cfg, testTable(), ArrivalConfig{Process: Constant, Rate: 100}, 20000)
	counts := make([]int, cfg.Users)
	for _, it := range items {
		counts[it.User]++
	}
	top := 0 // users are rank-ordered by construction: rank 0 most active
	for _, c := range counts[:cfg.Users/10] {
		top += c
	}
	if frac := float64(top) / float64(len(items)); frac < 0.5 {
		t.Errorf("top 10%% of users issued only %.0f%% of queries, want a heavy tail", frac*100)
	}
}

// TestSessionWalkOverlaps checks consecutive queries of one session overlap
// most of the time — the pan/zoom walk, not i.i.d. rectangles.
func TestSessionWalkOverlaps(t *testing.T) {
	cfg := testGenConfig()
	cfg.Users = 8
	items := Build(cfg, testTable(), ArrivalConfig{Process: Constant, Rate: 100}, 4000)
	prev := map[int]vm.Meta{}
	overlapping, pairs := 0, 0
	for _, it := range items {
		m := it.Meta.(vm.Meta)
		if p, ok := prev[it.User]; ok && p.DS == m.DS {
			pairs++
			if p.Rect.Overlaps(m.Rect) {
				overlapping++
			}
		}
		prev[it.User] = m
	}
	if pairs == 0 {
		t.Fatal("no consecutive same-session pairs")
	}
	if frac := float64(overlapping) / float64(pairs); frac < 0.6 {
		t.Errorf("only %.0f%% of consecutive session queries overlap, want a browsing walk", frac*100)
	}
}

func TestGenConfigValidate(t *testing.T) {
	bad := []GenConfig{
		{Users: -1},
		{OutputSide: -5},
		{Zooms: []int64{0}},
		{DatasetZipfS: -1},
		{Pattern: ZoomStack + 1},
		{Pattern: Browse, Queries: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should not validate", cfg)
		}
	}
	if err := (GenConfig{}).Validate(); err != nil {
		t.Errorf("zero config should validate via defaults: %v", err)
	}
	// Each generator refuses the other's patterns.
	for name, gen := range map[string]func(){
		"Clients(Walk)":        func() { Clients(GenConfig{}, testTable()) },
		"NewGenerator(Browse)": func() { NewGenerator(GenConfig{Pattern: Browse}, testTable()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			gen()
		}()
	}
}
