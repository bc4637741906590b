// Package driver generates the workload of the driver program the paper uses
// for its evaluation (§5): "the emulator allowed us to create different
// scenarios and vary the workload behavior (both the number of clients and
// the number of queries) in a controlled way". It is a generator only: its
// per-client lists become a stream through load.FromClients, and the
// replayers (experiment.Replay on an assembled system, load.Run on the wire)
// emulate the clients under closed pacing or submit the batch under open.
//
// The default workload reproduces the paper's: 16 concurrent clients, 16
// queries each, producing 1024×1024 RGB images (3 MB) at various
// magnification levels against three 30000×30000 slides, with 8/6/2 clients
// per dataset. Clients browse around per-dataset hotspots, which is what
// creates the inter-query overlap the scheduler exploits.
package driver

import (
	"fmt"
	"math"
	"math/rand"

	"mqsched/internal/dataset"
	"mqsched/internal/vm"
)

// WorkloadConfig parameterizes query generation.
type WorkloadConfig struct {
	// Clients is the number of emulated clients (default 16).
	Clients int
	// QueriesPerClient is the queries each client issues (default 16).
	QueriesPerClient int
	// ClientsPerDataset assigns clients to datasets in order (default
	// {8, 6, 2} over the given datasets, truncated/padded as needed).
	ClientsPerDataset []int
	// OutputSide is the output image edge in pixels (default 1024 → 3 MB
	// RGB outputs).
	OutputSide int64
	// Zooms and ZoomWeights give the magnification distribution (default
	// {1,2,4,8} with weights {1,3,4,2}).
	Zooms       []int64
	ZoomWeights []int
	// HotspotsPerDataset is the number of browsing foci per slide (default
	// 2).
	HotspotsPerDataset int
	// JitterSigma is the standard deviation in pixels of a query's offset
	// from its hotspot (default 900).
	JitterSigma float64
	// Op is the VM processing function (Subsample or Average).
	Op vm.Op
	// Seed makes generation deterministic.
	Seed int64
	// Mode selects the browsing pattern (default Browse).
	Mode Mode
}

// Mode is a client browsing pattern. The three modes create different
// overlap structures, exercising the scheduler in different ways.
type Mode int

const (
	// Browse: independent queries jittered around shared hotspots (the
	// paper's §5 workload) — symmetric, unordered overlap.
	Browse Mode = iota
	// Pan: each client sweeps its window across the slide in consecutive
	// steps at a fixed zoom — chained overlap between consecutive queries
	// (the movie scenario's access pattern).
	Pan
	// ZoomStack: each client repeatedly looks at the same center while
	// stepping the magnification down and up — cross-zoom overlap where
	// finer results can answer coarser queries.
	ZoomStack
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Browse:
		return "browse"
	case Pan:
		return "pan"
	case ZoomStack:
		return "zoomstack"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.QueriesPerClient == 0 {
		c.QueriesPerClient = 16
	}
	if len(c.ClientsPerDataset) == 0 {
		c.ClientsPerDataset = []int{8, 6, 2}
	}
	if c.OutputSide == 0 {
		c.OutputSide = 1024
	}
	if len(c.Zooms) == 0 {
		c.Zooms = []int64{1, 2, 4, 8}
		c.ZoomWeights = []int{1, 3, 4, 2}
	}
	if len(c.ZoomWeights) == 0 {
		c.ZoomWeights = ones(len(c.Zooms))
	}
	if c.HotspotsPerDataset == 0 {
		c.HotspotsPerDataset = 2
	}
	if c.JitterSigma == 0 {
		c.JitterSigma = 900
	}
	return c
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Generate builds the per-client query lists for the datasets in table
// (registration order). Generation is deterministic in cfg.Seed.
func Generate(cfg WorkloadConfig, table *dataset.Table) [][]vm.Meta {
	cfg = cfg.withDefaults()
	names := table.Names()
	if len(names) == 0 {
		panic("driver: no datasets")
	}

	// Hotspots per dataset, away from the borders.
	rng := rand.New(rand.NewSource(cfg.Seed))
	hotspots := map[string][][2]int64{}
	for _, name := range names {
		l := table.Get(name)
		for h := 0; h < cfg.HotspotsPerDataset; h++ {
			x := l.Width/4 + rng.Int63n(max(l.Width/2, 1))
			y := l.Height/4 + rng.Int63n(max(l.Height/2, 1))
			hotspots[name] = append(hotspots[name], [2]int64{x, y})
		}
	}

	// Assign clients to datasets.
	dsOf := make([]string, cfg.Clients)
	idx, used := 0, 0
	for i := 0; i < cfg.Clients; i++ {
		for idx < len(cfg.ClientsPerDataset)-1 && used >= cfg.ClientsPerDataset[idx] {
			idx++
			used = 0
		}
		dsOf[i] = names[idx%len(names)]
		used++
	}

	totalW := 0
	for _, w := range cfg.ZoomWeights {
		totalW += w
	}

	out := make([][]vm.Meta, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		crng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1))
		l := table.Get(dsOf[i])
		spots := hotspots[dsOf[i]]
		switch cfg.Mode {
		case Pan:
			out[i] = genPan(cfg, crng, l, spots, totalW)
		case ZoomStack:
			out[i] = genZoomStack(cfg, crng, l, spots)
		default:
			out[i] = genBrowse(cfg, crng, l, spots, totalW)
		}
	}
	return out
}

// genBrowse is the paper's §5 pattern: jittered windows around hotspots.
func genBrowse(cfg WorkloadConfig, crng *rand.Rand, l *dataset.Layout, spots [][2]int64, totalW int) []vm.Meta {
	var out []vm.Meta
	for q := 0; q < cfg.QueriesPerClient; q++ {
		zoom := pickZoom(crng, cfg.Zooms, cfg.ZoomWeights, totalW)
		spot := spots[crng.Intn(len(spots))]
		cx := spot[0] + int64(crng.NormFloat64()*cfg.JitterSigma)
		cy := spot[1] + int64(crng.NormFloat64()*cfg.JitterSigma)
		out = append(out, vm.WindowAt(l, cx, cy, cfg.OutputSide*zoom, zoom, cfg.Op))
	}
	return out
}

// genPan sweeps the window in a straight line from a hotspot, one
// half-window step per query.
func genPan(cfg WorkloadConfig, crng *rand.Rand, l *dataset.Layout, spots [][2]int64, totalW int) []vm.Meta {
	zoom := pickZoom(crng, cfg.Zooms, cfg.ZoomWeights, totalW)
	spot := spots[crng.Intn(len(spots))]
	cx, cy := spot[0], spot[1]
	// Random direction with half-window steps.
	side := cfg.OutputSide * zoom
	theta := crng.Float64() * 6.28318
	dx := int64(float64(side/2) * math.Cos(theta))
	dy := int64(float64(side/2) * math.Sin(theta))
	var out []vm.Meta
	for q := 0; q < cfg.QueriesPerClient; q++ {
		out = append(out, vm.WindowAt(l, cx, cy, cfg.OutputSide*zoom, zoom, cfg.Op))
		cx += dx
		cy += dy
	}
	return out
}

// genZoomStack alternates magnification at a fixed center, coarse to fine
// and back — each fine result can answer the following coarser queries.
func genZoomStack(cfg WorkloadConfig, crng *rand.Rand, l *dataset.Layout, spots [][2]int64) []vm.Meta {
	spot := spots[crng.Intn(len(spots))]
	var out []vm.Meta
	n := len(cfg.Zooms)
	for q := 0; q < cfg.QueriesPerClient; q++ {
		idx := 0
		if n > 1 {
			// Triangle wave over the zoom list: 0,1,...,n-1,n-2,...,0,1,...
			idx = q % (2*n - 2)
			if idx >= n {
				idx = 2*n - 2 - idx
			}
		}
		zoom := cfg.Zooms[idx]
		out = append(out, vm.WindowAt(l, spot[0], spot[1], cfg.OutputSide*zoom, zoom, cfg.Op))
	}
	return out
}

func pickZoom(rng *rand.Rand, zooms []int64, weights []int, total int) int64 {
	v := rng.Intn(total)
	for i, w := range weights {
		if v < w {
			return zooms[i]
		}
		v -= w
	}
	return zooms[len(zooms)-1]
}

// PaperSlides builds the paper's three 3-byte-pixel datasets in 64 KB pages
// with the given edge: at the paper's 30000 pixels ~2.7 GB each, 7.5+ GB
// total — never materialized on the synthetic runtime.
func PaperSlides(side int64) *dataset.Table {
	return dataset.NewTable(
		vm.NewSlide("slide1", side, side),
		vm.NewSlide("slide2", side, side),
		vm.NewSlide("slide3", side, side),
	)
}
