package vm

import (
	"bytes"
	"math/rand"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/testapp"
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

// The averaging pass against the reference accumulator, over random page
// layouts, windows that are and are not zoom-aligned, and pages that deliver
// no data. Before finish every cut cell holds exactly the reference's sums
// and count, and every other cell got all of its window from one page or
// nothing; after finish the output matches byte for byte and the scratch is
// all zero.
func TestAvgAccumMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		zoom := []int64{1, 2, 3, 5, 8}[rng.Intn(5)]
		l := dataset.New("s1", rng.Int63n(120)+1, rng.Int63n(120)+1, BytesPerPixel, rng.Int63n(37)+4)
		need := randSubRect(rng, l.Bounds())
		if trial%2 == 0 {
			if need = AlignRect(need, zoom, l.Bounds()); need.Empty() {
				continue
			}
		}
		m := Meta{DS: "s1", Rect: need, Zoom: zoom, Op: Average}
		pages := l.PagesInRect(need)
		acc := newAvgAccum(m, l, l.Pages(need), need)
		ref := newAvgAccumRef(m.OutRect(), zoom)
		got := randBytes(rng, m.OutRect().Area()*BytesPerPixel)
		want := append([]byte(nil), got...)
		for _, p := range pages {
			if rng.Intn(6) == 0 {
				continue // the page delivered no data
			}
			pageRect := l.PageRect(p)
			page := randBytes(rng, pageRect.Area()*BytesPerPixel)
			acc.page(got, page, pageRect, pageRect.Intersect(need))
			ref.addRef(page, pageRect, pageRect.Intersect(need))
		}
		for oy := ref.grid.Y0; oy < ref.grid.Y1; oy++ {
			for ox := ref.grid.X0; ox < ref.grid.X1; ox++ {
				i := (oy-ref.grid.Y0)*ref.grid.Dx() + (ox - ref.grid.X0)
				wantCell := [4]uint64{ref.sums[3*i], ref.sums[3*i+1], ref.sums[3*i+2], uint64(ref.cnt[i])}
				if acc.rowSlot[oy-acc.grid.Y0] < 0 && acc.colSlot[ox-acc.grid.X0] < 0 {
					if n := ref.cnt[i]; n != 0 && int64(n) != zoom*zoom {
						t.Fatalf("trial %d (zoom=%d need=%v page side %d): uncut cell (%d, %d) has %d of %d pixels",
							trial, zoom, need, l.PageSide, ox, oy, n, zoom*zoom)
					}
				} else if c := *acc.cell(ox, oy); c != wantCell {
					t.Fatalf("trial %d (zoom=%d need=%v page side %d): cut cell (%d, %d) = %v, reference %v",
						trial, zoom, need, l.PageSide, ox, oy, c, wantCell)
				}
			}
		}
		acc.finish(got)
		ref.finishRef(want, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (zoom=%d need=%v page side %d): output differs from reference", trial, zoom, need, l.PageSide)
		}
		for i, c := range acc.cells[:cap(acc.cells)] {
			if c != [4]uint64{} {
				t.Fatalf("trial %d: cell %d = %v after finish, want zero", trial, i, c)
			}
		}
		acc.release()
	}
}

// A page that delivers no data leaves the cells inside it unwritten, and a
// cut cell it shares still divides by the pixels the other pages delivered.
func TestComputeRawAverageMissingPage(t *testing.T) {
	app, l := newApp(600, 600)
	// Cell (73, 73) covers base [146, 148)²: one pixel in each of the four
	// pages that meet at (147, 147). Page 0 delivers nothing.
	m := NewMeta("s1", geom.R(140, 140, 156, 156), 2, Average)
	hole := l.PageAt(146, 146)
	fetch := func(_ string, p int) []byte {
		if p == hole {
			return nil
		}
		return GeneratePage(l, p)
	}
	want := make([]byte, m.OutRect().Area()*BytesPerPixel)
	app.computeRawRef(m, m.OutRect(), want, fetch)
	var sum [3]int
	for _, p := range [][2]int64{{147, 146}, {146, 147}, {147, 147}} {
		r, g, b := Pixel("s1", p[0], p[1])
		sum[0], sum[1], sum[2] = sum[0]+int(r), sum[1]+int(g), sum[2]+int(b)
	}
	cut := pixOffset(m.OutRect(), 73, 73)
	if got := want[cut : cut+3]; got[0] != byte(sum[0]/3) || got[1] != byte(sum[1]/3) || got[2] != byte(sum[2]/3) {
		t.Fatalf("reference cut cell = %v, want the mean of three pixels %v/3", got, sum)
	}
	ctx := &fakeCtx{}
	out := app.NewBlob(ctx, m)
	app.ComputeRaw(ctx, m, m.OutRect(), out, pageFunc(func(p int) []byte { return fetch("s1", p) }))
	if !bytes.Equal(out.Data, want) {
		t.Fatalf("ComputeRaw with page %d missing differs from reference", hole)
	}
	if in := pixOffset(m.OutRect(), 71, 71); !bytes.Equal(out.Data[in:in+3], []byte{0, 0, 0}) {
		t.Fatalf("a cell inside the missing page was written: %v", out.Data[in:in+3])
	}
}

// FuzzComputeRawAverage: any window and output sub-rectangle, zoom 1–9 (odd
// zooms cut cells against the odd 147-pixel page side) and any set of pages
// that deliver no data — ComputeRaw matches computeRawRef byte for byte.
func FuzzComputeRawAverage(f *testing.F) {
	app, l := newApp(600, 600)
	pages := make([][]byte, l.NumPages())
	for p := range pages {
		pages[p] = GeneratePage(l, p)
	}
	f.Add(uint16(140), uint16(140), uint16(160), uint16(160), uint8(0), uint8(0), uint8(255), uint8(255), uint8(1), uint8(0))
	f.Add(uint16(0), uint16(0), uint16(600), uint16(600), uint8(0), uint8(0), uint8(255), uint8(255), uint8(2), uint8(0x21))
	f.Add(uint16(100), uint16(130), uint16(400), uint16(310), uint8(40), uint8(10), uint8(200), uint8(90), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 uint16, sx0, sy0, sx1, sy1, zoom uint8, holes uint8) {
		z := int64(zoom%9) + 1
		r := AlignRect(geom.R(int64(x0%600), int64(y0%600), int64(x1%601), int64(y1%601)), z, l.Bounds())
		if r.Empty() {
			return
		}
		m := NewMeta("s1", r, z, Average)
		out := m.OutRect()
		// The output sub-rectangle a partial ComputeRaw (the part no cached
		// result covers) is asked for, as fractions of the grid.
		frac := func(lo, d int64, f uint8) int64 { return lo + d*int64(f)/255 }
		outSub := geom.R(frac(out.X0, out.Dx(), min(sx0, sx1)), frac(out.Y0, out.Dy(), min(sy0, sy1)),
			frac(out.X0, out.Dx(), max(sx0, sx1)), frac(out.Y0, out.Dy(), max(sy0, sy1)))
		fetch := func(_ string, p int) []byte {
			if holes>>(p%8)&1 != 0 {
				return nil
			}
			return pages[p]
		}
		want := make([]byte, out.Area()*BytesPerPixel)
		app.computeRawRef(m, outSub, want, fetch)
		ctx := &fakeCtx{}
		blob := app.NewBlob(ctx, m)
		app.ComputeRaw(ctx, m, outSub, blob, pageFunc(func(p int) []byte { return fetch("s1", p) }))
		if !bytes.Equal(blob.Data, want) {
			t.Fatalf("%v outSub=%v holes=%08b: ComputeRaw differs from computeRawRef", m, outSub, holes)
		}
	})
}

// FuzzProjectAverage: a cached average at zoom 1–4 projected onto a query k
// ∈ {2, 3, 4, 5} times coarser over any overlap — Project matches
// projectPixelsRef byte for byte.
func FuzzProjectAverage(f *testing.F) {
	app, _ := newApp(4096, 4096)
	f.Add(int64(1), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(5), uint8(3), uint8(1), uint8(9), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, srcZoom, kSel, sSide, sx, sy, dSide, dx, dy uint8) {
		sz := int64(srcZoom%4) + 1
		k := int64(kSel%4) + 2
		dz := sz * k
		// Both windows on the query's zoom grid, so the cached one projects.
		s := NewMeta("s1", geom.R(int64(sx%32)*dz, int64(sy%32)*dz, (int64(sx%32)+int64(sSide%24)+1)*dz, (int64(sy%32)+int64(sSide%24)+1)*dz), sz, Average)
		d := NewMeta("s1", geom.R(int64(dx%32)*dz, int64(dy%32)*dz, (int64(dx%32)+int64(dSide%24)+1)*dz, (int64(dy%32)+int64(dSide%24)+1)*dz), dz, Average)
		rng := rand.New(rand.NewSource(seed))
		src := &query.Blob{Meta: s, Data: randBytes(rng, s.OutRect().Area()*BytesPerPixel)}
		ctx := &fakeCtx{}
		got := app.NewBlob(ctx, d)
		rng.Read(got.Data)
		want := append([]byte(nil), got.Data...)
		covered := app.Project(ctx, src, d, got)
		if wantCov := s.Rect.Intersect(d.Rect).ScaleInner(dz); !covered.Eq(wantCov) {
			t.Fatalf("Project(%v onto %v) covered %v, want %v", s, d, covered, wantCov)
		}
		projectPixelsRef(src.Data, s, want, d, covered, k)
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("Project(%v onto %v, k=%d, covered %v) differs from projectPixelsRef", s, d, k, covered)
		}
	})
}

// FuzzProjectInto: a cached result at zoom 1–4 projected onto a query k ∈
// {1, …, 5} times coarser, with either operator, into the remainder left
// after up to five random cuts of the output grid — ProjectInto writes
// exactly covered ∩ into over a sentinel-filled output, with the bytes and
// charge of a whole-grid projection.
func FuzzProjectInto(f *testing.F) {
	app, _ := newApp(4096, 4096)
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(1), uint8(5), uint8(3), uint8(1), uint8(9), uint8(2), uint8(7), uint8(3))
	f.Add(int64(3), uint8(2), uint8(1), uint8(0), uint8(20), uint8(4), uint8(4), uint8(12), uint8(0), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, srcZoom, kSel, opSel, sSide, sx, sy, dSide, dx, dy, cuts uint8) {
		sz := int64(srcZoom%4) + 1
		dz := sz * (int64(kSel%5) + 1)
		op := []Op{Subsample, Average}[opSel%2]
		// Both windows on the query's zoom grid, so the cached one projects.
		s := NewMeta("s1", geom.R(int64(sx%32)*dz, int64(sy%32)*dz, (int64(sx%32)+int64(sSide%24)+1)*dz, (int64(sy%32)+int64(sSide%24)+1)*dz), sz, op)
		d := NewMeta("s1", geom.R(int64(dx%32)*dz, int64(dy%32)*dz, (int64(dx%32)+int64(dSide%24)+1)*dz, (int64(dy%32)+int64(dSide%24)+1)*dz), dz, op)
		rng := rand.New(rand.NewSource(seed))
		src := &query.Blob{Meta: s, Data: randBytes(rng, s.OutRect().Area()*BytesPerPixel)}
		into := geom.NewRegion(d.OutRect())
		for i := 0; i < int(cuts%6); i++ {
			into.Subtract(randSubRect(rng, d.OutRect()))
		}
		testapp.CheckProjectInto(t, app, src, d, into.Rects())
	})
}

// End-to-end: the optimized ComputeRaw must equal the scalar-reference
// pipeline byte for byte over randomized windows.
func TestComputeRawMatchesRef(t *testing.T) {
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
		ctx := &fakeCtx{}
		out := app.NewBlob(ctx, m)
		app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l})
		if !bytes.Equal(out.Data, want) {
			t.Fatalf("trial %d (%v): ComputeRaw differs from reference", trial, m)
		}
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
// page.
type recordingPrefetcher struct {
	directReader
	hints map[int]int
}

func (r *recordingPrefetcher) StartFetch(l *dataset.Layout, page int) { r.hints[page]++ }

// Each page must be hinted at most once per query, regardless of depth (the
// old sliding window re-hinted every page PrefetchDepth times, wasting the
// capped prefetch budget).
func TestPrefetchHintsEachPageOnce(t *testing.T) {
	app, l := newApp(1470, 1470)
	app.PrefetchDepth = 3
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
			t.Errorf("page %d hinted %d times, want 1", p, n)
		}
	}
	// The walk hints every page except the first.
	if len(pr.hints) != len(pages)-1 {
		t.Errorf("hinted %d distinct pages, want %d", len(pr.hints), len(pages)-1)
	}
	// Output still correct with hints on.
	if !bytes.Equal(out.Data, RenderOracle(m)) {
		t.Error("output differs from oracle")
	}
}

// Pooled scratch comes back zero without a clear: finish zeroes every cut
// cell it resolves, including ones a later, smaller pass does not use.
func TestAvgAccumPoolReuseZeroed(t *testing.T) {
	l := dataset.New("s1", 64, 64, BytesPerPixel, 7)
	full := NewMeta("s1", l.Bounds(), 2, Average)
	pages := l.PagesInRect(full.Rect)
	a := newAvgAccum(full, l, l.Pages(full.Rect), full.Rect)
	dst := make([]byte, full.OutRect().Area()*BytesPerPixel)
	for _, p := range pages {
		pr := l.PageRect(p)
		a.page(dst, bytes.Repeat([]byte{0xff}, int(pr.Area()*BytesPerPixel)), pr, pr)
	}
	folded := 0
	for _, c := range a.cells {
		if c[3] != 0 {
			folded++
		}
	}
	if folded == 0 {
		t.Fatal("7-pixel pages at zoom 2 cut no cell; the test needs cut cells")
	}
	a.finish(dst)
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xff}, len(dst))) {
		t.Fatal("an all-0xff slide did not average to 0xff")
	}
	a.release()

	small := NewMeta("s1", geom.R(0, 0, 30, 30), 3, Average)
	b := newAvgAccum(small, l, l.Pages(small.Rect), small.Rect)
	for i, c := range b.cells[:cap(b.cells)] {
		if c != [4]uint64{} {
			t.Fatalf("pooled cell %d = %v, want zero", i, c)
		}
	}
	for _, s := range [][]int32{b.rowSlot, b.colSlot} {
		if int64(len(s)) != 10 {
			t.Fatalf("slots sized %d, want 10 (the 30-pixel side at zoom 3)", len(s))
		}
	}
	b.release()
}

// The averaging scratch is sized by the page edges that cut cells, not by
// the output grid: a whole-slide zoom-2 average over a 4096² slide keeps 14
// cut rows and 14 cut columns of 2048 cells (the odd multiples of 147 below
// 4096), 1.8 MB, where an entry per output cell was 2048² of them, 117 MB.
func TestAvgAccumScratchSizedByPageEdges(t *testing.T) {
	app, l := newApp(4096, 4096)
	m := NewMeta("s1", l.Bounds(), 2, Average)
	const cut = 28 * 2048
	a := newAvgAccum(m, l, l.Pages(m.Rect), m.Rect)
	if len(a.cells) != cut {
		t.Fatalf("accumulator holds %d cells, want %d", len(a.cells), cut)
	}
	a.release()

	// A real pass whose pages deliver nothing, so that only the scratch is
	// exercised; whatever it leaves in the pool is as small.
	ctx := &fakeCtx{}
	app.ComputeRaw(ctx, m, m.OutRect(), app.NewBlob(ctx, m), pageFunc(func(int) []byte { return nil }))
	for i := 0; i < 4; i++ {
		if p, _ := avgAccumPool.Get().(*avgAccum); p != nil && cap(p.cells) > cut {
			t.Fatalf("pooled accumulator keeps %d cells, more than the %d cut ones", cap(p.cells), cut)
		}
	}
}
