package vol

import "mqsched/internal/geom"

// Scalar reference kernels.
//
// These are the original per-voxel implementations of the volume kernels,
// retained verbatim as the correctness oracle for the row-vectorized kernels
// in vol.go: every optimized kernel must produce byte-identical output on
// the same inputs (see kernels_test.go). They recompute the row-major byte
// offset — and, in the accumulator, the output-cell coordinates — for every
// voxel.

// projectPixelsRef is the scalar reference for projectPixels.
func projectPixelsRef(srcData []byte, srcOut geom.Rect, dstData []byte, dstOut, covered geom.Rect, k int64, op Op) {
	for y := covered.Y0; y < covered.Y1; y++ {
		for x := covered.X0; x < covered.X1; x++ {
			var acc, n int64
			var mx byte
			for v := y * k; v < (y+1)*k; v++ {
				for u := x * k; u < (x+1)*k; u++ {
					px := srcData[(v-srcOut.Y0)*srcOut.Dx()+(u-srcOut.X0)]
					if px > mx {
						mx = px
					}
					acc += int64(px)
					n++
				}
			}
			di := (y-dstOut.Y0)*dstOut.Dx() + (x - dstOut.X0)
			if op == MIP {
				dstData[di] = mx
			} else {
				dstData[di] = byte(acc / n)
			}
		}
	}
}

// addRef is the scalar reference for projAccum.add: per voxel it recomputes
// the page offset, divides down to the output cell, and checks grid
// membership.
func (a *projAccum) addRef(page []byte, pageRect, piece geom.Rect, yOff int64) {
	for sy := piece.Y0; sy < piece.Y1; sy++ {
		by := sy - yOff // in-slice y
		for bx := piece.X0; bx < piece.X1; bx++ {
			v := page[(sy-pageRect.Y0)*pageRect.Dx()+(bx-pageRect.X0)]
			ox := geom.FloorDiv(bx, a.zoom)
			oy := geom.FloorDiv(by, a.zoom)
			if !a.grid.ContainsPoint(ox, oy) {
				continue
			}
			idx := (oy-a.grid.Y0)*a.grid.Dx() + (ox - a.grid.X0)
			if v > a.mx[idx] {
				a.mx[idx] = v
			}
			a.sum[idx] += uint64(v)
			a.cnt[idx]++
		}
	}
}

// finishRef is the scalar reference for projAccum.finish.
func (a *projAccum) finishRef(dst []byte, m Meta) {
	dstOut := m.OutRect()
	for y := a.grid.Y0; y < a.grid.Y1; y++ {
		for x := a.grid.X0; x < a.grid.X1; x++ {
			idx := (y-a.grid.Y0)*a.grid.Dx() + (x - a.grid.X0)
			if a.cnt[idx] == 0 {
				continue
			}
			di := (y-dstOut.Y0)*dstOut.Dx() + (x - dstOut.X0)
			if m.Op == MIP {
				dst[di] = a.mx[idx]
			} else {
				dst[di] = byte(a.sum[idx] / uint64(a.cnt[idx]))
			}
		}
	}
}

// computeRawRef is the original single-threaded ComputeRaw loop over the
// scalar reference kernels. It is the end-to-end oracle the optimized —
// possibly parallel — ComputeRaw is property-tested against.
func (a *App) computeRawRef(m Meta, outSub geom.Rect, out []byte, pr pageFetcher) {
	l := a.Table.Get(m.DS)
	baseNeed := outSub.Mul(m.Zoom).Intersect(m.Window)
	if baseNeed.Empty() {
		return
	}
	acc := newProjAccumRef(outSub, m)
	for z := m.Z0; z < m.Z1; z++ {
		sliceRect := baseNeed.Translate(0, int64(z)*m.SliceH)
		pages := l.Pages(sliceRect)
		for i := range pages.Len() {
			p := pages.At(i)
			data := pr(m.DS, p)
			pageRect := l.PageRect(p)
			piece := pageRect.Intersect(sliceRect)
			if piece.Empty() || data == nil {
				continue
			}
			acc.addRef(data, pageRect, piece, int64(z)*m.SliceH)
		}
	}
	acc.finishRef(out, m)
}

// pageFetcher is the minimal page source computeRawRef needs (no rt.Ctx, no
// modelled costs).
type pageFetcher func(ds string, page int) []byte

// newProjAccumRef allocates a fresh, unpooled accumulator so the reference
// path is independent of the scratch-buffer pool it is testing.
func newProjAccumRef(grid geom.Rect, m Meta) *projAccum {
	n := grid.Area()
	return &projAccum{grid: grid, zoom: m.Zoom, mx: make([]byte, n), sum: make([]uint64, n), cnt: make([]uint32, n)}
}
