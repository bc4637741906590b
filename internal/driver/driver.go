// Package driver emulates the behaviour of multiple simultaneous clients,
// like the driver program the paper uses for its evaluation (§5): "the
// emulator allowed us to create different scenarios and vary the workload
// behavior (both the number of clients and the number of queries) in a
// controlled way".
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
	"sync"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/server"
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
			x := l.Width/4 + rng.Int63n(maxI64(l.Width/2, 1))
			y := l.Height/4 + rng.Int63n(maxI64(l.Height/2, 1))
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
			out[i] = genPan(cfg, crng, l, dsOf[i], spots, totalW)
		case ZoomStack:
			out[i] = genZoomStack(cfg, crng, l, dsOf[i], spots)
		default:
			out[i] = genBrowse(cfg, crng, l, dsOf[i], spots, totalW)
		}
	}
	return out
}

// genBrowse is the paper's §5 pattern: jittered windows around hotspots.
func genBrowse(cfg WorkloadConfig, crng *rand.Rand, l *dataset.Layout, ds string, spots [][2]int64, totalW int) []vm.Meta {
	var out []vm.Meta
	for q := 0; q < cfg.QueriesPerClient; q++ {
		zoom := pickZoom(crng, cfg.Zooms, cfg.ZoomWeights, totalW)
		spot := spots[crng.Intn(len(spots))]
		cx := spot[0] + int64(crng.NormFloat64()*cfg.JitterSigma)
		cy := spot[1] + int64(crng.NormFloat64()*cfg.JitterSigma)
		out = append(out, windowAt(cfg, l, ds, cx, cy, zoom))
	}
	return out
}

// genPan sweeps the window in a straight line from a hotspot, one
// half-window step per query.
func genPan(cfg WorkloadConfig, crng *rand.Rand, l *dataset.Layout, ds string, spots [][2]int64, totalW int) []vm.Meta {
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
		out = append(out, windowAt(cfg, l, ds, cx, cy, zoom))
		cx += dx
		cy += dy
	}
	return out
}

// genZoomStack alternates magnification at a fixed center, coarse to fine
// and back — each fine result can answer the following coarser queries.
func genZoomStack(cfg WorkloadConfig, crng *rand.Rand, l *dataset.Layout, ds string, spots [][2]int64) []vm.Meta {
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
		out = append(out, windowAt(cfg, l, ds, spot[0], spot[1], cfg.Zooms[idx]))
	}
	return out
}

// windowAt builds a zoom-aligned query window of OutputSide·zoom pixels
// centred near (cx, cy), clamped to the dataset.
func windowAt(cfg WorkloadConfig, l *dataset.Layout, ds string, cx, cy, zoom int64) vm.Meta {
	side := cfg.OutputSide * zoom
	if side > l.Width {
		side = l.Width
	}
	if side > l.Height {
		side = l.Height
	}
	// Floor-align the corner so the window is exactly side long and
	// zoom-aligned (side is a multiple of zoom by construction).
	x0 := geom.FloorDiv(clamp(cx-side/2, 0, l.Width-side), zoom) * zoom
	y0 := geom.FloorDiv(clamp(cy-side/2, 0, l.Height-side), zoom) * zoom
	side = geom.FloorDiv(side, zoom) * zoom
	r := geom.R(x0, y0, x0+side, y0+side)
	return vm.NewMeta(ds, r, zoom, cfg.Op)
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

func clamp(v, lo, hi int64) int64 {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// LaunchOpts configure client behaviour.
type LaunchOpts struct {
	// Batch submits every query up front from a single process and waits
	// for the batch to drain (the paper's Figure 7 movie scenario). The
	// default interactive mode has each client wait for the completion of a
	// query before submitting the next one (Figures 4-6).
	Batch bool
	// ThinkTime is an optional pause after each of a client's queries
	// (interactive mode only).
	ThinkTime time.Duration
}

// Collector accumulates query results; read it after the run completes.
type Collector struct {
	mu      sync.Mutex
	results []*query.Result
	start   time.Duration
	finish  time.Duration
	errs    []error
}

// Results returns the completed query results (in completion order).
func (c *Collector) Results() []*query.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*query.Result(nil), c.results...)
}

// Makespan is the time from launch to the completion of the last query —
// the "total execution time" of a batch (Figure 7).
func (c *Collector) Makespan() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finish - c.start
}

// Errs returns submission errors, if any.
func (c *Collector) Errs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs
}

func (c *Collector) add(res *query.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, res)
	if res.Completed > c.finish {
		c.finish = res.Completed
	}
}

func (c *Collector) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

// System is what the emulated clients need of an assembled stack; an
// *mqsched.System provides it.
type System interface {
	Submit(m query.Meta) (*server.Ticket, error)
	Start(name string, fn func(rt.Ctx))
	Runtime() rt.Runtime
}

// Launch starts the emulated clients — one query list each, of any
// application's predicate type — as client processes of sys and returns the
// collector. Drive sys to completion (Run) before reading it.
func Launch[M query.Meta](sys System, queries [][]M, opts LaunchOpts) *Collector {
	col := &Collector{start: sys.Runtime().Now()}

	if opts.Batch {
		sys.Start("batch-client", func(ctx rt.Ctx) {
			var tickets []*server.Ticket
			// Interleave clients' queries round-robin so the arrival mix
			// matches the interactive scenario's first wave.
			for q := 0; ; q++ {
				submitted := false
				for i := range queries {
					if q < len(queries[i]) {
						tk, err := sys.Submit(queries[i][q])
						if err != nil {
							col.fail(err)
							continue
						}
						tickets = append(tickets, tk)
						submitted = true
					}
				}
				if !submitted {
					break
				}
			}
			for _, tk := range tickets {
				col.add(tk.Wait(ctx))
			}
		})
		return col
	}

	// Interactive mode: one process per client.
	for i := range queries {
		sys.Start(fmt.Sprintf("client-%d", i), func(ctx rt.Ctx) {
			for _, m := range queries[i] {
				tk, err := sys.Submit(m)
				if err != nil {
					col.fail(err)
					break
				}
				col.add(tk.Wait(ctx))
				if opts.ThinkTime > 0 {
					ctx.Sleep(opts.ThinkTime)
				}
			}
		})
	}
	return col
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
