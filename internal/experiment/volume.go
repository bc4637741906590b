package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/load"
	"mqsched/internal/vol"
)

// VolumeComparison (V1) runs the future-work 3-D visualization application
// (internal/vol) under each ranking strategy: emulated analysts render MIP
// slabs of shared volumes at mixed magnifications. It demonstrates that the
// scheduling model is application-independent — the same graph, data store
// and policies run unchanged on a different operator set.
func VolumeComparison(base Config) (Table, error) {
	base = base.withDefaults()
	t := Table{
		Title:  "V1: ranking strategies on the 3-D volume visualization app (future work §6)",
		Header: []string{"policy", "trimmed response (s)", "avg overlap", "makespan (s)"},
		Notes: []string{
			fmt.Sprintf("maximum-intensity projections of slabs of two 8192x8192x64 volumes, %d clients x %d queries",
				base.Clients, base.QueriesPerClient),
		},
	}
	for _, pol := range Policies {
		m, err := runVolume(base, pol)
		if err != nil {
			return t, err
		}
		t.AddRow(policyLabel(pol), m.TrimmedResponse, m.AvgOverlap, m.Makespan)
	}
	return t, nil
}

// runVolume runs an analyst workload against the vol app, handed to the
// same facade every other run assembles through as Config.App.
func runVolume(cfg Config, policyName string) (Metrics, error) {
	app := vol.New()
	dims := vol.Dims{Width: 8192, Height: 8192, Depth: 64}
	table := dataset.NewTable(app.Add("vol1", dims), app.Add("vol2", dims))
	app.Finish(table)

	cfg.Policy = policyName
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
