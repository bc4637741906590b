package vm

import (
	"fmt"
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
		zoom1Floor     = 1.5 // ten 1x readings: 3.46–23.38
		averageFloor   = 1.2 // 2.35–4.17
		zoom2Floor     = 8.0 // 12.10–14.25
		projectK2Floor = 2.5 // 4.05–6.85
		// subsample/zoom4 read 0.73–9.46, project/subsample/k4 0.64–4.60,
		// project/average/k4 0.99–2.34.
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
	app, l := newApp(4096, 4096)
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

	// One page averaged at zoom 4: the in-place row kernel plus the cut
	// cells along the page's far edges vs per-pixel FloorDiv/ContainsPoint
	// into a whole-grid accumulator.
	{
		m := Meta{DS: "s1", Rect: geom.R(0, 0, 148, 148), Zoom: 4, Op: Average}
		grid := m.OutRect()
		pages := l.Pages(m.Rect)
		dst := make([]byte, grid.Area()*BytesPerPixel)
		refAcc := newAvgAccumRef(grid, m.Zoom)
		bench("average/zoom4", inBytes, averageFloor,
			func() { refAcc.addRef(page, pageRect, pageRect); refAcc.finishRef(dst, m) },
			func() {
				acc := newAvgAccum(m, l, pages, m.Rect)
				acc.page(dst, page, pageRect, pageRect)
				acc.finish(dst)
				acc.release()
			})
	}

	// scan_mem's query: a 512² window averaged at zoom 2 over the 16 real
	// pages it touches, serial ComputeRaw against the reference loop.
	{
		m := NewMeta("s1", geom.R(512, 512, 1024, 1024), 2, Average)
		resident := map[int][]byte{}
		for _, p := range l.PagesInRect(m.Rect) {
			resident[p] = GeneratePage(l, p)
		}
		fetch := func(_ string, p int) []byte { return resident[p] }
		pr := pageFunc(func(p int) []byte { return resident[p] })
		serial := &App{Table: app.Table, Costs: app.Costs}
		ctx := &fakeCtx{}
		out := serial.NewBlob(ctx, m)
		bench("average/zoom2", m.Rect.Area()*BytesPerPixel, zoom2Floor,
			func() { serial.computeRawRef(m, m.OutRect(), out.Data, fetch) },
			func() { serial.ComputeRaw(ctx, m, m.OutRect(), out, pr) })
	}

	// Projection of a cached 256x256 result onto a k-times coarser query —
	// cached results are whole query outputs, so they are much larger
	// than one page.
	for _, c := range []struct {
		op    Op
		k     int64
		floor float64
	}{{Subsample, 4, noFloor}, {Average, 4, noFloor}, {Average, 2, projectK2Floor}} {
		win := geom.R(0, 0, 256, 256)
		s := Meta{DS: "s1", Rect: win, Zoom: 1, Op: c.op}
		d := Meta{DS: "s1", Rect: win, Zoom: c.k, Op: c.op}
		srcData := randBytes(rng, s.OutRect().Area()*BytesPerPixel)
		dst := make([]byte, d.OutRect().Area()*BytesPerPixel)
		covered := d.OutRect()
		bench(fmt.Sprintf("project/%v/k%d", c.op, c.k), win.Area()*BytesPerPixel, c.floor,
			func() { projectPixelsRef(srcData, s, dst, d, covered, c.k) },
			func() { app.projectPixels(srcData, s, dst, d, covered, c.k) })
	}
}
