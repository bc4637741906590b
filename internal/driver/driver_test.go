package driver

import (
	"fmt"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/vm"
)

func smallTable() *dataset.Table {
	return dataset.NewTable(
		vm.NewSlide("s1", 4096, 4096),
		vm.NewSlide("s2", 4096, 4096),
	)
}

func TestGenerateShape(t *testing.T) {
	table := smallTable()
	cfg := WorkloadConfig{
		Clients: 6, QueriesPerClient: 4, ClientsPerDataset: []int{4, 2},
		OutputSide: 256, Seed: 1, Op: vm.Subsample,
	}
	qs := Generate(cfg, table)
	if len(qs) != 6 {
		t.Fatalf("clients = %d", len(qs))
	}
	ds1, ds2 := 0, 0
	for i, list := range qs {
		if len(list) != 4 {
			t.Fatalf("client %d has %d queries", i, len(list))
		}
		for _, m := range list {
			l := table.Get(m.DS)
			if !l.Bounds().Contains(m.Rect) {
				t.Fatalf("query %v escapes dataset bounds", m)
			}
			if m.Rect.X0%m.Zoom != 0 || m.Rect.X1%m.Zoom != 0 {
				t.Fatalf("query %v not zoom-aligned", m)
			}
			if m.Op != vm.Subsample {
				t.Fatalf("wrong op: %v", m)
			}
		}
		switch qs[i][0].DS {
		case "s1":
			ds1++
		case "s2":
			ds2++
		}
	}
	if ds1 != 4 || ds2 != 2 {
		t.Fatalf("dataset split %d/%d, want 4/2", ds1, ds2)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	table := smallTable()
	cfg := WorkloadConfig{Clients: 4, QueriesPerClient: 4, ClientsPerDataset: []int{2, 2}, OutputSide: 128, Seed: 42}
	a := Generate(cfg, table)
	b := Generate(cfg, table)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("Generate not deterministic")
	}
	cfg.Seed = 43
	c := Generate(cfg, table)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateDefaultsMatchPaper(t *testing.T) {
	table := PaperSlides(30000)
	qs := Generate(WorkloadConfig{Seed: 7, Op: vm.Average}, table)
	if len(qs) != 16 {
		t.Fatalf("clients = %d", len(qs))
	}
	total := 0
	perDS := map[string]int{}
	for _, list := range qs {
		total += len(list)
		perDS[list[0].DS]++
		for _, m := range list {
			// 1024x1024 outputs (3MB RGB) unless clipped.
			out := m.OutRect()
			if out.Dx() != 1024 || out.Dy() != 1024 {
				t.Fatalf("output %dx%d, want 1024x1024", out.Dx(), out.Dy())
			}
		}
	}
	if total != 256 {
		t.Fatalf("total queries = %d, want 256", total)
	}
	if perDS["slide1"] != 8 || perDS["slide2"] != 6 || perDS["slide3"] != 2 {
		t.Fatalf("client split = %v, want 8/6/2", perDS)
	}
}

func TestPanMode(t *testing.T) {
	table := smallTable()
	cfg := WorkloadConfig{
		Clients: 2, QueriesPerClient: 6, ClientsPerDataset: []int{1, 1},
		OutputSide: 128, Seed: 3, Mode: Pan,
	}
	qs := Generate(cfg, table)
	for c, list := range qs {
		zoom := list[0].Zoom
		for i, m := range list {
			if m.Zoom != zoom {
				t.Fatalf("client %d: pan changed zoom at step %d", c, i)
			}
			if !table.Get(m.DS).Bounds().Contains(m.Rect) {
				t.Fatalf("client %d: window %v out of bounds", c, m.Rect)
			}
			if i > 0 && !m.Rect.Overlaps(list[i-1].Rect) {
				// Half-window steps must overlap the previous frame unless
				// both got clamped at a border.
				if !m.Rect.Eq(list[i-1].Rect) {
					t.Fatalf("client %d: consecutive pan frames %v, %v do not overlap", c, list[i-1].Rect, m.Rect)
				}
			}
		}
	}
}

func TestZoomStackMode(t *testing.T) {
	table := smallTable()
	cfg := WorkloadConfig{
		Clients: 1, QueriesPerClient: 8, ClientsPerDataset: []int{1},
		OutputSide: 64, Seed: 3, Mode: ZoomStack,
		Zooms: []int64{1, 2, 4}, ZoomWeights: []int{1, 1, 1},
	}
	qs := Generate(cfg, table)
	zooms := make([]int64, 0, 8)
	for _, m := range qs[0] {
		zooms = append(zooms, m.Zoom)
	}
	// Triangle wave over {1,2,4}: 1,2,4,2,1,2,4,2.
	want := []int64{1, 2, 4, 2, 1, 2, 4, 2}
	for i := range want {
		if zooms[i] != want[i] {
			t.Fatalf("zoom sequence %v, want %v", zooms, want)
		}
	}
	// Single-zoom list must not panic.
	cfg.Zooms, cfg.ZoomWeights = []int64{2}, []int{1}
	Generate(cfg, table)
}

func TestModeString(t *testing.T) {
	if Browse.String() != "browse" || Pan.String() != "pan" || ZoomStack.String() != "zoomstack" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}
