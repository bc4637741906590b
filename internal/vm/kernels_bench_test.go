package vm

import (
	"math/rand"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
)

// BenchmarkKernels measures the row-vectorized pixel kernels against the
// retained scalar references on identical inputs — pure kernel time, no page
// generation or I/O. Input-region bytes per call set the MB/s unit.
//
// Each kernel's opt-over-ref speedup in the same run is logged (-v prints it)
// and, where it is a claim that holds at one iteration, checked: CI runs
// -benchtime=1x, where a single call of a kernel that moves 64 KB in a few
// microseconds is mostly timer and cold-cache noise. A floor is at least 1.0
// and at most 0.7 x the lowest of ten consecutive 1x readings; a kernel whose
// lowest reading leaves no room for that gets noFloor, because "speedup >=
// 0.3" is not a check. EXPERIMENTS.md records the 3x medians; byte-identity
// with the references is kernels_test.go's job.
func BenchmarkKernels(b *testing.B) {
	const (
		zoom1Floor   = 1.5 // ten 1x readings: 3.46–23.38
		averageFloor = 1.2 // 1.93–3.87
		// subsample/zoom4 read 0.73–9.46, project/subsample/k4 0.64–4.60,
		// project/average/k4 1.20–2.18.
		noFloor = 0
	)
	rng := rand.New(rand.NewSource(7))
	bench := func(name string, bytesPerOp int64, floor float64, ref, opt func()) {
		measure := func(fn func(), secPerOp *float64) func(b *testing.B) {
			return func(b *testing.B) {
				b.SetBytes(bytesPerOp)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn()
				}
				*secPerOp = b.Elapsed().Seconds() / float64(b.N)
			}
		}
		var refSec, optSec float64
		b.Run(name+"/ref", measure(ref, &refSec))
		b.Run(name+"/opt", measure(opt, &optSec))
		if refSec == 0 || optSec == 0 {
			return // a -bench filter left an arm out
		}
		x := refSec / optSec
		if x < floor {
			b.Fatalf("%s: opt %.2fx ref, below its floor of %.2f", name, x, floor)
		}
		b.Logf("%s: opt %.2fx ref (floor %.2f)", name, x, floor)
	}

	// The page-facing kernels (subsample, average) run on a real 147x147
	// page — the ~64 KB chunk size ComputeRaw actually feeds them — with
	// a zoom-aligned query window slightly larger than the page, so the
	// rightmost/bottom cells are partial just as on dataset boundaries.
	app, _ := newApp(4096, 4096)
	pageRect := geom.R(0, 0, dataset.VMPageSide, dataset.VMPageSide)
	page := randBytes(rng, pageRect.Area()*BytesPerPixel)
	inBytes := pageRect.Area() * BytesPerPixel

	// Subsample at zoom 1: the contiguous-row memmove fast path.
	{
		m := Meta{DS: "s1", Rect: geom.R(0, 0, dataset.VMPageSide, dataset.VMPageSide), Zoom: 1, Op: Subsample}
		dst := make([]byte, m.OutRect().Area()*BytesPerPixel)
		piece := m.OutRect()
		bench("subsample/zoom1", inBytes, zoom1Floor,
			func() { subsamplePixelsRef(page, pageRect, dst, m, piece) },
			func() { subsamplePixels(page, pageRect, dst, m, piece) })
	}

	// Subsample at zoom 4: strided row walk vs per-pixel offsets.
	{
		m := Meta{DS: "s1", Rect: geom.R(0, 0, 148, 148), Zoom: 4, Op: Subsample}
		dst := make([]byte, m.OutRect().Area()*BytesPerPixel)
		piece := sampleGrid(pageRect, 4)
		bench("subsample/zoom4", inBytes, noFloor,
			func() { subsamplePixelsRef(page, pageRect, dst, m, piece) },
			func() { subsamplePixels(page, pageRect, dst, m, piece) })
	}

	// Average accumulation + finish at zoom 4: cell-band walk vs
	// per-pixel FloorDiv/ContainsPoint.
	{
		m := Meta{DS: "s1", Rect: geom.R(0, 0, 148, 148), Zoom: 4, Op: Average}
		grid := m.OutRect()
		dst := make([]byte, grid.Area()*BytesPerPixel)
		refAcc := newAvgAccumRef(grid, m.Zoom)
		optAcc := newAvgAccumRef(grid, m.Zoom) // unpooled: measure the kernels, not the pool
		bench("average/zoom4", inBytes, averageFloor,
			func() { refAcc.addRef(page, pageRect, pageRect); refAcc.finishRef(dst, m) },
			func() { optAcc.add(page, pageRect, pageRect); optAcc.finish(dst, m) })
	}

	// Projection of a cached 256x256 result onto a 4x coarser query —
	// cached results are whole query outputs, so they are much larger
	// than one page.
	for _, op := range []Op{Subsample, Average} {
		win := geom.R(0, 0, 256, 256)
		s := Meta{DS: "s1", Rect: win, Zoom: 1, Op: op}
		d := Meta{DS: "s1", Rect: win, Zoom: 4, Op: op}
		srcData := randBytes(rng, s.OutRect().Area()*BytesPerPixel)
		dst := make([]byte, d.OutRect().Area()*BytesPerPixel)
		covered := d.OutRect()
		bench("project/"+op.String()+"/k4", win.Area()*BytesPerPixel, noFloor,
			func() { projectPixelsRef(srcData, s, dst, d, covered, 4) },
			func() { app.projectPixels(srcData, s, dst, d, covered, 4) })
	}
}
