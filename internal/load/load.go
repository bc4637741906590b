// Package load is the workload instrument: the one stream type ([]Item) and
// its file, two deterministic *generators* under one GenConfig, and the one
// *runner* that offers a stream to a live server and measures what comes
// back (generator/runner split in the spirit of TSBS). Run takes the pacing
// as a value (Open releases items at their instants, Closed keeps one in
// flight per user); its records, like the simulator's, reduce through
// Summarize.
//
// GenConfig.Pattern picks the generator. Clients is the paper's client
// emulator (§5): a fixed population browsing around shared hotspots, every
// query at instant 0. Build, the Walk, turns thousands of simulated user
// sessions into a single skewed stream, and differs from the emulator in
// three ways that matter for production claims:
//
//   - Open loop: arrivals come from a clock (constant / Poisson / burst),
//     not from query completions, so queueing delay is visible instead of
//     being absorbed by client back-pressure.
//   - Skew: dataset popularity, hotspot popularity, and per-user activity
//     are Zipf-distributed, the shape real exploration traffic has
//     (LifeRaft), rather than i.i.d.
//   - Sessions: each user performs a pan/zoom random walk around hotspots
//     (zoom sessions), not independent rectangles, so consecutive queries
//     overlap the way interactive viewers actually browse.
//
// Everything is deterministic in the seeds: identical config produces an
// identical []Item stream, which the tests assert and CI relies on.
package load

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/vm"
)

// GenConfig parameterizes stream generation; a zero field takes its
// pattern's default. The Zipf exponents and Zooms shape a Walk alone.
type GenConfig struct {
	// Pattern selects the generator: Walk, the zero value, for Build and
	// NewGenerator; Browse, Pan or ZoomStack for Clients.
	Pattern Pattern
	// Users is the number of simulated user sessions or emulated clients
	// (default 1000 walking, the paper's 16 emulated).
	Users int
	// Queries is how many queries each emulated client issues (default 16).
	Queries int
	// DatasetZipfS skews dataset popularity across the table's datasets in
	// registration order (0 = uniform; cmd/mqload defaults to 1.1).
	DatasetZipfS float64
	// HotspotsPerDataset is the number of shared browsing foci per dataset
	// (default 4 walking, the paper's 2 emulated). All users on a dataset
	// share the same hotspot list, which is what creates cross-user overlap.
	HotspotsPerDataset int
	// HotspotZipfS skews hotspot popularity within a dataset (0 = uniform;
	// cmd/mqload defaults to 1.2).
	HotspotZipfS float64
	// UserZipfS skews how active individual users are (0 = uniform;
	// cmd/mqload defaults to 0.6 — a few power users dominate).
	UserZipfS float64
	// OutputSide is the output image edge in pixels (default 512 walking,
	// the paper's 1024 emulated: 3 MB RGB outputs).
	OutputSide int64
	// Zooms is the magnification ladder a session walks (default
	// {1, 2, 4, 8}, the ladder every emulated client uses).
	Zooms []int64
	// Op is the VM processing function.
	Op vm.Op
	// Seed makes generation deterministic.
	Seed int64
}

// ladder is the magnification ladder: a walk's default, and every emulated
// client's.
var ladder = []int64{1, 2, 4, 8}

// withDefaults fills the zero fields from the pattern's defaults: a walk's,
// or the paper's emulated clients' (§5).
func (c GenConfig) withDefaults() GenConfig {
	d := GenConfig{Users: 1000, HotspotsPerDataset: 4, OutputSide: 512, Zooms: ladder}
	if c.Pattern != Walk {
		d = GenConfig{Users: 16, Queries: 16, HotspotsPerDataset: 2, OutputSide: 1024}
	}
	c.Users = cmp.Or(c.Users, d.Users)
	c.Queries = cmp.Or(c.Queries, d.Queries)
	c.HotspotsPerDataset = cmp.Or(c.HotspotsPerDataset, d.HotspotsPerDataset)
	c.OutputSide = cmp.Or(c.OutputSide, d.OutputSide)
	if len(c.Zooms) == 0 {
		c.Zooms = d.Zooms
	}
	return c
}

// Validate reports the first configuration error.
func (c GenConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case c.Pattern < Walk || c.Pattern > ZoomStack:
		return fmt.Errorf("load: unknown pattern %v", c.Pattern)
	case d.Users < 1:
		return fmt.Errorf("load: users %d < 1", c.Users)
	case d.Queries < 0:
		return fmt.Errorf("load: queries per client %d < 0", c.Queries)
	case d.HotspotsPerDataset < 1:
		return fmt.Errorf("load: hotspots per dataset %d < 1", c.HotspotsPerDataset)
	case d.OutputSide < 1:
		return fmt.Errorf("load: output side %d < 1", c.OutputSide)
	case d.DatasetZipfS < 0 || d.HotspotZipfS < 0 || d.UserZipfS < 0:
		return fmt.Errorf("load: zipf exponents must be >= 0")
	}
	for _, z := range d.Zooms {
		if z < 1 {
			return fmt.Errorf("load: zoom %d < 1", z)
		}
	}
	return nil
}

// hotspots places n browsing foci on l, away from its borders, drawing from
// the generator's own rng.
func hotspots(rng *rand.Rand, l *dataset.Layout, n int) [][2]int64 {
	spots := make([][2]int64, n)
	for h := range spots {
		spots[h][0] = l.Width/4 + rng.Int63n(max(l.Width/2, 1))
		spots[h][1] = l.Height/4 + rng.Int63n(max(l.Height/2, 1))
	}
	return spots
}

// A walking session's step re-anchors at a (Zipf-sampled) hotspot with
// probability jumpProb, changes magnification one rung with zoomProb, and
// otherwise pans panFrac of the window side: half-window steps keep
// consecutive queries overlapping.
const jumpProb, zoomProb, panFrac = 0.05, 0.25, 0.5

// Generator merges a walk's per-user sessions into one query stream. It is
// not safe for concurrent use; streams are materialized up front (Build) and
// the runner consumes the slice.
type Generator struct {
	cfg      GenConfig
	rng      *rand.Rand // user-activity sampling
	userPick *Zipf
	users    []*session
}

// NewGenerator builds a walk's sessions over the datasets in table. It panics
// on an invalid config or a pattern other than Walk (callers taking user
// input should Validate first).
func NewGenerator(cfg GenConfig, table *dataset.Table) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Pattern != Walk {
		panic(fmt.Sprintf("load: NewGenerator walks sessions; %v is a pattern of Clients", cfg.Pattern))
	}
	cfg = cfg.withDefaults()
	names := table.Names()
	if len(names) == 0 {
		panic("load: no datasets")
	}

	// Shared hotspot lists, one rng per dataset so the list only depends on
	// the seed and the dataset's position — not on user count.
	spots := make([][][2]int64, len(names))
	for d, name := range names {
		spots[d] = hotspots(rand.New(rand.NewSource(cfg.Seed+int64(d)*104729+3)), table.Get(name), cfg.HotspotsPerDataset)
	}

	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	g.userPick = NewZipf(g.rng, cfg.UserZipfS, cfg.Users)
	dsPick := NewZipf(rand.New(rand.NewSource(cfg.Seed+2)), cfg.DatasetZipfS, len(names))
	for u := 0; u < cfg.Users; u++ {
		d := dsPick.Next()
		srng := rand.New(rand.NewSource(cfg.Seed + int64(u)*7919 + 11))
		s := &session{
			cfg:   cfg,
			rng:   srng,
			l:     table.Get(names[d]),
			spots: spots[d],
			hot:   NewZipf(srng, cfg.HotspotZipfS, len(spots[d])),
		}
		s.jump()
		g.users = append(g.users, s)
	}
	return g
}

// Next samples the next active user and advances their session one step.
func (g *Generator) Next() (user int, m vm.Meta) {
	user = g.userPick.Next()
	return user, g.users[user].step()
}

// Build materializes an open-loop stream of n queries with arrival instants
// from the arrival config. Identical configs and seeds produce identical
// streams.
func Build(cfg GenConfig, table *dataset.Table, ar ArrivalConfig, n int) []Item {
	g := NewGenerator(cfg, table)
	clock := NewClock(ar)
	items := make([]Item, n)
	for i := range items {
		user, m := g.Next()
		items[i] = Item{Seq: i, User: user, At: clock.Next(), Meta: m}
	}
	return items
}

// session is one user's pan/zoom random walk.
type session struct {
	cfg     GenConfig
	rng     *rand.Rand
	l       *dataset.Layout
	spots   [][2]int64
	hot     *Zipf
	cx, cy  int64 // walk center at base resolution
	zoomIdx int
	theta   float64 // pan direction
}

// jump re-anchors the walk at a popularity-sampled hotspot.
func (s *session) jump() {
	spot := s.spots[s.hot.Next()]
	s.cx, s.cy = spot[0], spot[1]
	s.zoomIdx = s.rng.Intn(len(s.cfg.Zooms))
	s.theta = s.rng.Float64() * 2 * math.Pi
}

// step advances the walk and emits the query at the new viewpoint.
func (s *session) step() vm.Meta {
	switch v := s.rng.Float64(); {
	case v < jumpProb:
		s.jump()
	case v < jumpProb+zoomProb:
		// Zoom in or out one rung at the same center.
		if s.rng.Intn(2) == 0 && s.zoomIdx > 0 {
			s.zoomIdx--
		} else if s.zoomIdx < len(s.cfg.Zooms)-1 {
			s.zoomIdx++
		}
	default:
		// Pan: drift the direction a little, step a fraction of the window.
		s.theta += s.rng.NormFloat64() * 0.3
		side := s.window()
		step := panFrac * float64(side)
		s.cx += int64(step * math.Cos(s.theta))
		s.cy += int64(step * math.Sin(s.theta))
		// Walked off the slide: bounce back toward the interior.
		lo, hiX, hiY := side/2, s.l.Width-side/2, s.l.Height-side/2
		if s.cx < lo || s.cx > hiX || s.cy < lo || s.cy > hiY {
			s.cx = geom.Clamp(s.cx, lo, hiX)
			s.cy = geom.Clamp(s.cy, lo, hiY)
			s.theta += math.Pi
		}
	}
	return vm.WindowAt(s.l, s.cx, s.cy, s.window(), s.cfg.Zooms[s.zoomIdx], s.cfg.Op)
}

// window is the current window side at base resolution.
func (s *session) window() int64 {
	side := s.cfg.OutputSide * s.cfg.Zooms[s.zoomIdx]
	return min(side, s.l.Width, s.l.Height)
}
