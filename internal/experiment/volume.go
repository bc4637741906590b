package experiment

import (
	"math/rand"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/load"
	"mqsched/internal/vol"
)

// runVolume is V1's Run: an analyst workload against the future-work 3-D
// visualization application (internal/vol), handed to the same facade every
// other run assembles through as Config.App. Emulated analysts render MIP
// slabs of shared volumes at mixed magnifications, so the same graph, data
// store and policies run unchanged on a different operator set.
func runVolume(cfg Config) (Metrics, error) {
	cfg = cfg.withDefaults()
	app := vol.New()
	dims := vol.Dims{Width: 8192, Height: 8192, Depth: 64}
	table := dataset.NewTable(app.Add("vol1", dims), app.Add("vol2", dims))
	app.Finish(table)

	sys, err := cfg.assemble(table, app)
	if err != nil {
		return Metrics{}, err
	}
	items := load.FromClients(volumeWorkload(dims, cfg.Seed, cfg.Clients, cfg.QueriesPerClient))
	return cfg.measure(sys, items, load.Closed(500*time.Millisecond), 0)
}

// volumeWorkload emulates analysts rendering MIP slabs around shared foci:
// mixed zooms {2,4,8}, alternating full-volume and focused slabs.
func volumeWorkload(dims vol.Dims, seed int64, clients, perClient int) [][]vol.Meta {
	names := []string{"vol1", "vol2"}
	out := make([][]vol.Meta, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)*131 + 17))
		ds := names[c%len(names)]
		// Shared focus per volume plus per-client jitter.
		fx := dims.Width/2 + int64(rng.NormFloat64()*600)
		fy := dims.Height/2 + int64(rng.NormFloat64()*600)
		for q := 0; q < perClient; q++ {
			zoom := []int64{2, 4, 8}[rng.Intn(3)]
			side := int64(512) * zoom
			if side > dims.Width {
				side = dims.Width
			}
			x0 := geom.Clamp(fx-side/2, 0, dims.Width-side) / zoom * zoom
			y0 := geom.Clamp(fy-side/2, 0, dims.Height-side) / zoom * zoom
			// Alternate between the full stack and a focused half-slab.
			z0, z1 := 0, dims.Depth
			if q%2 == 1 {
				z0, z1 = dims.Depth/4, 3*dims.Depth/4
			}
			w := geom.R(x0, y0, x0+side, y0+side)
			out[c] = append(out[c], vol.NewMeta(ds, dims, w, z0, z1, zoom, vol.MIP))
		}
	}
	return out
}
