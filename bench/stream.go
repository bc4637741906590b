package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/driver"
	"mqsched/internal/geom"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// stream yields a workload's queries one at a time, forever. The seed fixes
// the whole sequence; the program under test sees nothing but these queries.
type stream func() vm.Meta

const (
	realSide  = 4096  // real-runtime slides: 3 × 4096², 2,352 pages, 151 MB
	paperSide = 30000 // the paper's slides: 3 × 30000², never materialized
	tileSide  = 512   // scan_mem's disjoint base tiles
)

func slides(side int64) []mqsched.Slide {
	return []mqsched.Slide{
		{Name: "slide1", Width: side, Height: side},
		{Name: "slide2", Width: side, Height: side},
		{Name: "slide3", Width: side, Height: side},
	}
}

func realTable() *dataset.Table { return mqsched.NewSlideTable(slides(realSide)...) }

// browseStream is the internal/load Zipf browse: 200 users walking pan/zoom
// sessions around 4 shared hotspots per slide, 512² subsampled outputs at
// zooms 1/2/4/8. Consecutive queries overlap, which is what the scheduler
// and the data store feed on.
func browseStream(seed int64) stream {
	g := load.NewGenerator(load.GenConfig{
		Users:              200,
		DatasetZipfS:       1.1,
		HotspotZipfS:       1.2,
		UserZipfS:          0.6,
		HotspotsPerDataset: 4,
		OutputSide:         512,
		Zooms:              []int64{1, 2, 4, 8},
		Op:                 vm.Subsample,
		Seed:               seed,
	}, realTable())
	return func() vm.Meta {
		_, m := g.Next()
		return m
	}
}

// scanStream walks disjoint 512² base tiles (256² averaged outputs at zoom 2)
// in raster order over the three slides, round and round. The seed picks the
// slide order and the tile the raster starts on. No two queries of one cycle
// overlap, and a cycle's outputs (37 MB) do not fit the 8 MB data store, so
// nothing is ever reused.
func scanStream(seed int64) stream {
	const perSide = realSide / tileSide
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(3)
	start := rng.Intn(perSide * perSide)
	names := slides(realSide)
	i := 0
	return func() vm.Meta {
		cycle := i % (3 * perSide * perSide)
		i++
		slide := names[order[cycle/(perSide*perSide)]].Name
		tile := (start + cycle) % (perSide * perSide)
		x, y := int64(tile%perSide)*tileSide, int64(tile/perSide)*tileSide
		return vm.NewMeta(slide, geom.R(x, y, x+tileSide, y+tileSide), 2, vm.Average)
	}
}

// paperQueries is the paper's own workload for one seed and operator: 16
// clients × 16 queries of 1024² outputs around two hotspots per slide.
func paperQueries(seed int64, op vm.Op, table *dataset.Table) [][]vm.Meta {
	return driver.Generate(driver.WorkloadConfig{Op: op, Seed: seed}, table)
}

// paperStream flattens paperQueries round-robin over the clients and
// repeats; the probes use it to replay paper_sim's shapes.
func paperStream(seed int64) stream {
	qs := paperQueries(seed, vm.Subsample, mqsched.NewSlideTable(slides(paperSide)...))
	var flat []vm.Meta
	for q := 0; q < len(qs[0]); q++ {
		for c := range qs {
			flat = append(flat, qs[c][q])
		}
	}
	i := 0
	return func() vm.Meta {
		m := flat[i%len(flat)]
		i++
		return m
	}
}

// streamHash fingerprints the first n queries of a stream; the smoke test
// uses it to pin that a seed determines its stream.
func streamHash(s stream, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, s().String())
	}
	return h.Sum64()
}
