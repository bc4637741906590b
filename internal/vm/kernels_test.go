package vm

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mqsched/internal/geom"
)

// Differential tests: the row-vectorized kernels in vm.go must be
// byte-identical to the retained scalar references in ref.go on the same
// inputs, over randomized rects, zooms, and page layouts.

func randBytes(rng *rand.Rand, n int64) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// randSubRect returns a random non-empty sub-rectangle of r.
func randSubRect(rng *rand.Rand, r geom.Rect) geom.Rect {
	x0 := r.X0 + rng.Int63n(r.Dx())
	y0 := r.Y0 + rng.Int63n(r.Dy())
	x1 := x0 + 1 + rng.Int63n(r.X1-x0)
	y1 := y0 + 1 + rng.Int63n(r.Y1-y0)
	return geom.R(x0, y0, x1, y1)
}

func TestProjectPixelsMatchesRef(t *testing.T) {
	app, _ := newApp(4096, 4096)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		srcZoom := []int64{1, 2, 3, 4}[rng.Intn(4)]
		k := []int64{1, 2, 3, 5, 8}[rng.Intn(5)]
		dstZoom := srcZoom * k
		op := []Op{Subsample, Average}[rng.Intn(2)]
		// Shared aligned window so srcOut is exactly dstOut scaled by k.
		side := (rng.Int63n(20) + 2) * dstZoom
		x0 := rng.Int63n(64) * dstZoom
		y0 := rng.Int63n(64) * dstZoom
		win := geom.R(x0, y0, x0+side, y0+side)
		s := NewMeta("s1", win, srcZoom, op)
		d := NewMeta("s1", win, dstZoom, op)

		srcData := randBytes(rng, s.OutRect().Area()*BytesPerPixel)
		covered := randSubRect(rng, d.OutRect())
		if trial%7 == 0 {
			covered = geom.R(covered.X0, covered.Y0, covered.X0+1, covered.Y0+1) // 1-pixel rect
		}
		dstInit := randBytes(rng, d.OutRect().Area()*BytesPerPixel)
		got := append([]byte(nil), dstInit...)
		want := append([]byte(nil), dstInit...)
		app.projectPixels(srcData, s, got, d, covered, k)
		projectPixelsRef(srcData, s, want, d, covered, k)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: projectPixels (op=%v srcZoom=%d k=%d covered=%v) differs from reference",
				trial, op, srcZoom, k, covered)
		}
	}
}

func TestSubsamplePixelsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		zoom := []int64{1, 2, 3, 4, 7}[rng.Intn(5)]
		// A page rect deliberately unaligned to the zoom.
		px, py := rng.Int63n(300)+1, rng.Int63n(300)+1
		pw, ph := rng.Int63n(100)+zoom*2, rng.Int63n(100)+zoom*2
		pageRect := geom.R(px, py, px+pw, py+ph)
		page := randBytes(rng, pageRect.Area()*BytesPerPixel)

		win := AlignRect(pageRect, zoom, geom.R(0, 0, 1<<20, 1<<20))
		m := Meta{DS: "s1", Rect: win, Zoom: zoom, Op: Subsample}
		outPiece := sampleGrid(pageRect.Intersect(win), zoom)
		if outPiece.Empty() {
			continue
		}
		if trial%5 == 0 {
			outPiece = geom.R(outPiece.X0, outPiece.Y0, outPiece.X0+1, outPiece.Y0+1)
		}
		dstInit := randBytes(rng, m.OutRect().Area()*BytesPerPixel)
		got := append([]byte(nil), dstInit...)
		want := append([]byte(nil), dstInit...)
		subsamplePixels(page, pageRect, got, m, outPiece)
		subsamplePixelsRef(page, pageRect, want, m, outPiece)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: subsamplePixels (zoom=%d page=%v outPiece=%v) differs from reference",
				trial, zoom, pageRect, outPiece)
		}
	}
}

func TestAvgAccumMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		zoom := []int64{1, 2, 3, 5, 8}[rng.Intn(5)]
		gx, gy := rng.Int63n(40), rng.Int63n(40)
		grid := geom.R(gx, gy, gx+rng.Int63n(30)+1, gy+rng.Int63n(30)+1)
		opt := newAvgAccum(grid, zoom)
		ref := newAvgAccumRef(grid, zoom)

		// Several pages, deliberately unaligned to the zoom so runs are
		// clipped at both page and grid boundaries; pieces extend past the
		// grid to exercise the bounds checks.
		for p := 0; p < 4; p++ {
			base := grid.Mul(zoom)
			px := base.X0 - zoom + rng.Int63n(base.Dx()+2*zoom)
			py := base.Y0 - zoom + rng.Int63n(base.Dy()+2*zoom)
			pageRect := geom.R(px, py, px+rng.Int63n(60)+1, py+rng.Int63n(60)+1)
			piece := randSubRect(rng, pageRect)
			if p == 3 {
				piece = geom.R(piece.X0, piece.Y0, piece.X0+1, piece.Y0+1) // 1-pixel piece
			}
			page := randBytes(rng, pageRect.Area()*BytesPerPixel)
			opt.add(page, pageRect, piece)
			ref.addRef(page, pageRect, piece)
		}
		if !reflect.DeepEqual(opt.sums, ref.sums) || !reflect.DeepEqual(opt.cnt, ref.cnt) {
			t.Fatalf("trial %d (zoom=%d grid=%v): accumulator state differs from reference", trial, zoom, grid)
		}

		m := Meta{DS: "s1", Rect: grid.Mul(zoom), Zoom: zoom, Op: Average}
		dstInit := randBytes(rng, m.OutRect().Area()*BytesPerPixel)
		got := append([]byte(nil), dstInit...)
		want := append([]byte(nil), dstInit...)
		opt.finish(got, m)
		ref.finishRef(want, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (zoom=%d grid=%v): finish differs from reference", trial, zoom, grid)
		}
		opt.release()
	}
}

// End-to-end: the optimized ComputeRaw — serial and fanned out — must equal
// the scalar-reference pipeline byte for byte, over randomized windows and
// worker counts (including workers > pages).
func TestComputeRawMatchesRefAcrossParallelism(t *testing.T) {
	app, l := newApp(600, 600)
	rng := rand.New(rand.NewSource(45))
	fetch := func(ds string, page int) []byte { return GeneratePage(l, page) }
	for trial := 0; trial < 30; trial++ {
		zoom := []int64{1, 2, 4, 8}[rng.Intn(4)]
		op := []Op{Subsample, Average}[rng.Intn(2)]
		x0, y0 := rng.Int63n(400), rng.Int63n(400)
		raw := geom.R(x0, y0, x0+rng.Int63n(180)+zoom, y0+rng.Int63n(180)+zoom)
		r := AlignRect(raw, zoom, l.Bounds())
		if r.Empty() {
			continue
		}
		m := NewMeta("s1", r, zoom, op)

		want := make([]byte, m.OutRect().Area()*BytesPerPixel)
		app.computeRawRef(m, m.OutRect(), want, fetch)

		for _, workers := range []int{1, 3, 16} {
			app.Parallelism = workers
			ctx := &fakeCtx{}
			out := app.NewBlob(ctx, m)
			app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l})
			if !bytes.Equal(out.Data, want) {
				t.Fatalf("trial %d (%v, workers=%d): ComputeRaw differs from reference", trial, m, workers)
			}
		}
		app.Parallelism = 0
	}
}

// A single-page query with a large worker bound must cap the fan-out and
// still produce the exact result.
func TestComputeRawParallelismExceedsPages(t *testing.T) {
	app, l := newApp(600, 600)
	app.Parallelism = 16
	// One page: window inside page 0 (pages are 147x147).
	m := NewMeta("s1", geom.R(0, 0, 100, 100), 2, Average)
	ctx := &fakeCtx{}
	out := app.NewBlob(ctx, m)
	app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l})
	if !bytes.Equal(out.Data, RenderOracle(m)) {
		t.Fatal("single-page parallel ComputeRaw differs from oracle")
	}
}

func TestSampleGridEdgeCases(t *testing.T) {
	// Zoom not dividing the rect: only base pixels at multiples of 3 in
	// [7, 13) are 9 and 12 → output [3, 5).
	if got := sampleGrid(geom.R(7, 7, 13, 13), 3); !got.Eq(geom.R(3, 3, 5, 5)) {
		t.Fatalf("sampleGrid unaligned = %v", got)
	}
	// 1-pixel base rect on a sample point.
	if got := sampleGrid(geom.R(6, 6, 7, 7), 3); !got.Eq(geom.R(2, 2, 3, 3)) {
		t.Fatalf("sampleGrid 1px on-grid = %v", got)
	}
	// 1-pixel base rect off the sample grid: empty.
	if got := sampleGrid(geom.R(7, 7, 8, 8), 3); !got.Empty() {
		t.Fatalf("sampleGrid 1px off-grid = %v", got)
	}
	// Zoom 1 is the identity.
	if got := sampleGrid(geom.R(5, 6, 9, 11), 1); !got.Eq(geom.R(5, 6, 9, 11)) {
		t.Fatalf("sampleGrid zoom1 = %v", got)
	}
}

func TestPixOffset3EdgeCases(t *testing.T) {
	pr := geom.R(10, 20, 17, 26) // 7 wide
	if got := pixOffset3(pr, 10, 20); got != 0 {
		t.Fatalf("origin offset = %d", got)
	}
	if got := pixOffset3(pr, 16, 20); got != 6*3 {
		t.Fatalf("row-end offset = %d", got)
	}
	if got := pixOffset3(pr, 10, 21); got != 7*3 {
		t.Fatalf("second-row offset = %d", got)
	}
	if got := pixOffset3(pr, 16, 25); got != (5*7+6)*3 {
		t.Fatalf("last-pixel offset = %d", got)
	}
}

// recordingPrefetcher wraps directReader and counts StartFetch hints per
// page; it is safe for concurrent use.
type recordingPrefetcher struct {
	directReader
	mu    sync.Mutex
	hints map[int]int
}

func (r *recordingPrefetcher) StartFetch(ds string, page int) {
	r.mu.Lock()
	r.hints[page]++
	r.mu.Unlock()
}

// Each page must be hinted at most once per query, regardless of depth or
// worker count (the old sliding window re-hinted every page PrefetchDepth
// times, wasting the capped prefetch budget).
func TestPrefetchHintsEachPageOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		app, l := newApp(1470, 1470)
		app.PrefetchDepth = 3
		app.Parallelism = workers
		m := NewMeta("s1", geom.R(0, 0, 1176, 1176), 4, Subsample)
		pr := &recordingPrefetcher{directReader: directReader{l: l}, hints: map[int]int{}}
		ctx := &fakeCtx{}
		out := app.NewBlob(ctx, m)
		app.ComputeRaw(ctx, m, m.OutRect(), out, pr)

		pages := l.PagesInRect(m.Rect)
		if len(pages) < 8 {
			t.Fatalf("want a multi-page query, got %d pages", len(pages))
		}
		for p, n := range pr.hints {
			if n != 1 {
				t.Errorf("workers=%d: page %d hinted %d times, want 1", workers, p, n)
			}
		}
		// The serial walk hints every page except the first.
		if workers == 1 && len(pr.hints) != len(pages)-1 {
			t.Errorf("hinted %d distinct pages, want %d", len(pr.hints), len(pages)-1)
		}
		// Output still correct with hints on.
		if !bytes.Equal(out.Data, RenderOracle(m)) {
			t.Errorf("workers=%d: output differs from oracle", workers)
		}
	}
}

// The pooled accumulator must come back zeroed after reuse.
func TestAvgAccumPoolReuseZeroed(t *testing.T) {
	grid := geom.R(0, 0, 8, 8)
	a := newAvgAccum(grid, 2)
	for i := range a.sums {
		a.sums[i] = 99
	}
	for i := range a.cnt {
		a.cnt[i] = 7
	}
	a.release()
	b := newAvgAccum(grid, 2)
	for i := range b.sums {
		if b.sums[i] != 0 {
			t.Fatal("pooled sums not zeroed")
		}
	}
	for i := range b.cnt {
		if b.cnt[i] != 0 {
			t.Fatal("pooled cnt not zeroed")
		}
	}
	b.release()
}
