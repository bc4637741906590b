package vol

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mqsched/internal/geom"
)

// Differential tests: the row-vectorized voxel kernels in vol.go must be
// byte-identical to the retained scalar references in ref.go on the same
// inputs, over randomized rects, zooms, and page layouts.

func randBytes(rng *rand.Rand, n int64) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randSubRect(rng *rand.Rand, r geom.Rect) geom.Rect {
	x0 := r.X0 + rng.Int63n(r.Dx())
	y0 := r.Y0 + rng.Int63n(r.Dy())
	return geom.R(x0, y0, x0+1+rng.Int63n(r.X1-x0), y0+1+rng.Int63n(r.Y1-y0))
}

func TestVolProjectPixelsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		k := []int64{1, 2, 3, 5, 8}[rng.Intn(5)]
		op := []Op{MIP, MeanZ}[rng.Intn(2)]
		// srcOut exactly dstOut scaled by k, with non-zero origins.
		ow, oh := rng.Int63n(24)+2, rng.Int63n(24)+2
		ox, oy := rng.Int63n(32), rng.Int63n(32)
		dstOut := geom.R(ox, oy, ox+ow, oy+oh)
		srcOut := dstOut.Mul(k)
		srcData := randBytes(rng, srcOut.Area())
		covered := randSubRect(rng, dstOut)
		if trial%7 == 0 {
			covered = geom.R(covered.X0, covered.Y0, covered.X0+1, covered.Y0+1) // 1-pixel rect
		}
		dstInit := randBytes(rng, dstOut.Area())
		got := append([]byte(nil), dstInit...)
		want := append([]byte(nil), dstInit...)
		projectPixels(srcData, srcOut, got, dstOut, covered, k, op)
		projectPixelsRef(srcData, srcOut, want, dstOut, covered, k, op)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: projectPixels (op=%v k=%d covered=%v) differs from reference",
				trial, op, k, covered)
		}
	}
}

func TestProjAccumMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		zoom := []int64{1, 2, 3, 5, 8}[rng.Intn(5)]
		gx, gy := rng.Int63n(40), rng.Int63n(40)
		grid := geom.R(gx, gy, gx+rng.Int63n(30)+1, gy+rng.Int63n(30)+1)
		m := Meta{DS: "v1", Window: grid.Mul(zoom), Zoom: zoom, Op: MIP, Z0: 0, Z1: 2, SliceH: 1 << 16}
		opt := newProjAccum(grid, m)
		ref := newProjAccumRef(grid, m)

		// Pages from two slices, unaligned to the zoom; pieces extend past
		// the grid to exercise the bounds checks.
		for p := 0; p < 4; p++ {
			yOff := int64(p%2) * m.SliceH
			base := grid.Mul(zoom).Translate(0, yOff)
			px := base.X0 - zoom + rng.Int63n(base.Dx()+2*zoom)
			py := base.Y0 - zoom + rng.Int63n(base.Dy()+2*zoom)
			pageRect := geom.R(px, py, px+rng.Int63n(60)+1, py+rng.Int63n(60)+1)
			piece := randSubRect(rng, pageRect)
			if p == 3 {
				piece = geom.R(piece.X0, piece.Y0, piece.X0+1, piece.Y0+1) // 1-voxel piece
			}
			page := randBytes(rng, pageRect.Area())
			opt.add(page, pageRect, piece, yOff)
			ref.addRef(page, pageRect, piece, yOff)
		}
		if !reflect.DeepEqual(opt.mx, ref.mx) || !reflect.DeepEqual(opt.sum, ref.sum) || !reflect.DeepEqual(opt.cnt, ref.cnt) {
			t.Fatalf("trial %d (zoom=%d grid=%v): accumulator state differs from reference", trial, zoom, grid)
		}

		for _, op := range []Op{MIP, MeanZ} {
			fm := m
			fm.Op = op
			dstInit := randBytes(rng, fm.OutRect().Area())
			got := append([]byte(nil), dstInit...)
			want := append([]byte(nil), dstInit...)
			opt.finish(got, fm)
			ref.finishRef(want, fm)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d (zoom=%d op=%v): finish differs from reference", trial, zoom, op)
			}
		}
		opt.release()
	}
}

// End-to-end: the optimized ComputeRaw must equal the scalar-reference
// pipeline byte for byte over randomized windows and slabs.
func TestVolComputeRawMatchesRef(t *testing.T) {
	app, l, dims := rig()
	gen := app.Generator()
	rng := rand.New(rand.NewSource(54))
	fetch := func(ds string, page int) []byte { return gen(l, page) }
	for trial := 0; trial < 15; trial++ {
		zoom := []int64{1, 2, 4}[rng.Intn(3)]
		op := []Op{MIP, MeanZ}[rng.Intn(2)]
		x0, y0 := rng.Int63n(300)/zoom*zoom, rng.Int63n(200)/zoom*zoom
		w := geom.R(x0, y0, x0+(rng.Int63n(200)/zoom+1)*zoom, y0+(rng.Int63n(150)/zoom+1)*zoom)
		z0 := rng.Intn(dims.Depth - 1)
		z1 := z0 + 1 + rng.Intn(dims.Depth-z0-1)
		m := NewMeta("v1", dims, w, z0, z1, zoom, op)

		want := make([]byte, m.OutRect().Area())
		app.computeRawRef(m, m.OutRect(), want, fetch)

		ctx := &fakeCtx{}
		out := app.NewBlob(ctx, m)
		app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l, gen: gen})
		if !bytes.Equal(out.Data, want) {
			t.Fatalf("trial %d (%v): ComputeRaw differs from reference", trial, m)
		}
	}
}

// The pooled accumulator must come back zeroed after reuse.
func TestProjAccumPoolReuseZeroed(t *testing.T) {
	grid := geom.R(0, 0, 8, 8)
	m := Meta{Zoom: 2}
	a := newProjAccum(grid, m)
	for i := range a.sum {
		a.mx[i], a.sum[i], a.cnt[i] = 9, 99, 7
	}
	a.release()
	b := newProjAccum(grid, m)
	for i := range b.sum {
		if b.mx[i] != 0 || b.sum[i] != 0 || b.cnt[i] != 0 {
			t.Fatal("pooled accumulator not zeroed")
		}
	}
	b.release()
}
