package load

import (
	"fmt"
	"math"
	"math/rand"

	"mqsched/internal/dataset"
	"mqsched/internal/vm"
)

// Pattern is how generated users browse: the Walk of Build's sessions, or one
// of the three patterns of the paper's client emulator (Clients), each an
// overlap structure of its own for the scheduler to exploit.
type Pattern int

const (
	// Walk: Zipf-skewed sessions on pan/zoom random walks (Build).
	Walk Pattern = iota
	// Browse: independent queries jittered around shared hotspots (the
	// paper's §5 workload) — symmetric, unordered overlap.
	Browse
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
func (p Pattern) String() string {
	if p < Walk || p > ZoomStack {
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
	return [...]string{"walk", "browse", "pan", "zoomstack"}[p]
}

// An emulated client draws its zooms from the ladder weighted 1:3:4:2 (one
// entry per unit of weight), and a browsing client centres each window
// jitterSigma pixels (one standard deviation) off a hotspot.
var zoomDraw = [...]int64{1, 2, 2, 2, 4, 4, 4, 4, 8, 8}

const jitterSigma = 900

// Clients is the paper's client emulator (§5) as one stream: cfg.Users
// clients of cfg.Queries queries each, split 8/6/2 over the table's first
// three datasets (registration order), browsing in cfg.Pattern around the
// hotspots their dataset's clients share. Client i is user i, every arrival
// is at 0, and the clients take turns, every client's first query first (the
// order FromClients gives): closed pacing replays the paper's interactive
// clients, open pacing its up-front batch. Identical configs produce
// identical streams. It panics on an invalid config or the Walk pattern.
func Clients(cfg GenConfig, table *dataset.Table) []Item {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Pattern == Walk {
		panic("load: Clients emulates the paper's clients; Build walks sessions")
	}
	cfg = cfg.withDefaults()
	names := table.Names()
	if len(names) == 0 {
		panic("load: no datasets")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	spots := make([][][2]int64, len(names))
	for d, name := range names {
		spots[d] = hotspots(rng, table.Get(name), cfg.HotspotsPerDataset)
	}
	items := make([]Item, cfg.Users*cfg.Queries)
	for user := 0; user < cfg.Users; user++ {
		// The 8/6/2 split; clients past the sixteenth stay on the third.
		d := 0
		for _, end := range [...]int{8, 14} {
			if user >= end {
				d++
			}
		}
		d %= len(names)
		// One source, re-seeded per client: a client draws all its queries
		// before the next client's seed.
		rng.Seed(cfg.Seed + int64(user)*7919 + 1)
		next := cfg.client(rng, table.Get(names[d]), spots[d])
		for q := 0; q < cfg.Queries; q++ {
			seq := q*cfg.Users + user
			items[seq] = Item{Seq: seq, User: user, Meta: next(q)}
		}
	}
	return items
}

// client is one emulated client browsing l in c.Pattern: called with q = 0,
// 1, … in turn, it returns the client's q-th query.
func (c GenConfig) client(rng *rand.Rand, l *dataset.Layout, spots [][2]int64) func(q int) vm.Meta {
	window := func(cx, cy, zoom int64) vm.Meta {
		return vm.WindowAt(l, cx, cy, c.OutputSide*zoom, zoom, c.Op)
	}
	switch c.Pattern {
	case Pan:
		// A straight line from a hotspot, half a window per query.
		zoom := zoomDraw[rng.Intn(len(zoomDraw))]
		spot := spots[rng.Intn(len(spots))]
		theta := rng.Float64() * 6.28318
		half := float64(c.OutputSide * zoom / 2)
		dx, dy := int64(half*math.Cos(theta)), int64(half*math.Sin(theta))
		return func(q int) vm.Meta { return window(spot[0]+int64(q)*dx, spot[1]+int64(q)*dy, zoom) }
	case ZoomStack:
		// One center, down the ladder and back up: zooms 1, 2, 4, 8, 4, 2, 1, …
		spot := spots[rng.Intn(len(spots))]
		period := 2*len(ladder) - 2
		return func(q int) vm.Meta { return window(spot[0], spot[1], ladder[min(q%period, period-q%period)]) }
	}
	// Browse: independent windows jittered around the hotspots.
	return func(int) vm.Meta {
		zoom := zoomDraw[rng.Intn(len(zoomDraw))]
		spot := spots[rng.Intn(len(spots))]
		cx := spot[0] + int64(rng.NormFloat64()*jitterSigma)
		cy := spot[1] + int64(rng.NormFloat64()*jitterSigma)
		return window(cx, cy, zoom)
	}
}
