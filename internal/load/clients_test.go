package load

import (
	"reflect"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/vm"
)

// TestClientsShape: the paper's population over three slides — 8/6/2
// clients, every query inside its slide, zoom-aligned and of the config's op
// — as one stream at instant 0 in which the clients take turns.
func TestClientsShape(t *testing.T) {
	table := testTable4k()
	items := Clients(GenConfig{Pattern: Browse, Queries: 4, OutputSide: 256, Op: vm.Subsample, Seed: 1}, table)
	if len(items) != 16*4 {
		t.Fatalf("%d items, want 16 clients × 4 queries", len(items))
	}
	perDS := map[string]int{}
	for i, it := range items {
		if it.Seq != i || it.User != i%16 || it.At != 0 {
			t.Fatalf("item %d is %+v, want user %d at 0", i, it, i%16)
		}
		m := it.Meta.(vm.Meta)
		if !table.Get(m.DS).Bounds().Contains(m.Rect) || m.Rect.X0%m.Zoom != 0 || m.Rect.X1%m.Zoom != 0 || m.Op != vm.Subsample {
			t.Fatalf("item %d: %v escapes its slide, is not zoom-aligned or has the wrong op", i, m)
		}
		if i < 16 {
			perDS[m.DS]++
		}
	}
	if perDS["slide1"] != 8 || perDS["slide2"] != 6 || perDS["slide3"] != 2 {
		t.Fatalf("client split %v, want 8/6/2", perDS)
	}
}

// TestClientsDeterministic: the seed alone decides the stream.
func TestClientsDeterministic(t *testing.T) {
	cfg := GenConfig{Pattern: Browse, Users: 4, Queries: 4, OutputSide: 128, Seed: 42}
	a := Clients(cfg, testTable4k())
	if !reflect.DeepEqual(a, Clients(cfg, testTable4k())) {
		t.Fatal("Clients not deterministic")
	}
	cfg.Seed = 43
	if reflect.DeepEqual(a, Clients(cfg, testTable4k())) {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestClientsDefaultsMatchPaper: the zero config is the paper's workload, 16
// clients × 16 queries of 1024² outputs (3 MB RGB), split 8/6/2 over three
// 30000² slides.
func TestClientsDefaultsMatchPaper(t *testing.T) {
	const side = 30000
	table := dataset.NewTable(vm.NewSlide("slide1", side, side), vm.NewSlide("slide2", side, side), vm.NewSlide("slide3", side, side))
	items := Clients(GenConfig{Pattern: Browse, Seed: 7, Op: vm.Average}, table)
	if len(items) != 256 {
		t.Fatalf("%d queries, want 256", len(items))
	}
	perDS := map[string]int{}
	for _, it := range items {
		m := it.Meta.(vm.Meta)
		if out := m.OutRect(); out.Dx() != 1024 || out.Dy() != 1024 {
			t.Fatalf("output %dx%d, want 1024x1024", out.Dx(), out.Dy())
		}
		if it.Seq < 16 {
			perDS[m.DS]++
		}
	}
	if perDS["slide1"] != 8 || perDS["slide2"] != 6 || perDS["slide3"] != 2 {
		t.Fatalf("client split %v, want 8/6/2", perDS)
	}
}

// TestClientsPan: a panning client keeps its zoom, and every frame overlaps
// the one before it.
func TestClientsPan(t *testing.T) {
	table := testTable4k()
	stream := Clients(GenConfig{Pattern: Pan, Users: 2, Queries: 6, OutputSide: 128, Seed: 3}, table)
	for c, list := range ByUser(stream) {
		var prev vm.Meta
		for i, it := range list {
			m := it.Meta.(vm.Meta)
			if !table.Get(m.DS).Bounds().Contains(m.Rect) {
				t.Fatalf("client %d: window %v out of bounds", c, m.Rect)
			}
			if i > 0 && m.Zoom != prev.Zoom {
				t.Fatalf("client %d: pan changed zoom at step %d", c, i)
			}
			// Half-window steps overlap the previous frame unless both got
			// clamped at a border.
			if i > 0 && !m.Rect.Overlaps(prev.Rect) && !m.Rect.Eq(prev.Rect) {
				t.Fatalf("client %d: consecutive pan frames %v, %v do not overlap", c, prev.Rect, m.Rect)
			}
			prev = m
		}
	}
}

// TestClientsZoomStack: one center, down the magnification ladder and back.
func TestClientsZoomStack(t *testing.T) {
	var zooms []int64
	for _, it := range Clients(GenConfig{Pattern: ZoomStack, Users: 1, Queries: 8, OutputSide: 64, Seed: 3}, testTable4k()) {
		zooms = append(zooms, it.Meta.(vm.Meta).Zoom)
	}
	if want := []int64{1, 2, 4, 8, 4, 2, 1, 2}; !reflect.DeepEqual(zooms, want) {
		t.Fatalf("zoom sequence %v, want %v", zooms, want)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{Walk: "walk", Browse: "browse", Pan: "pan", ZoomStack: "zoomstack", 9: "Pattern(9)"} {
		if got := p.String(); got != want {
			t.Errorf("pattern %d prints %q, want %q", int(p), got, want)
		}
	}
}
