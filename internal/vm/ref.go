package vm

import "mqsched/internal/geom"

// Scalar reference kernels.
//
// These are the original per-pixel implementations of the VM pixel kernels,
// retained verbatim as the correctness oracle for the row-vectorized kernels
// in vm.go: every optimized kernel must produce byte-identical output on the
// same inputs (see kernels_test.go for the property tests and
// kernels_bench_test.go for the speedup measurements). They compute
// one output pixel at a time, recomputing the row-major byte offset — and,
// in the averaging path, the output-cell coordinates — for every pixel.

// projectPixelsRef is the scalar reference for projectPixels.
func projectPixelsRef(srcData []byte, s Meta, dstData []byte, d Meta, covered geom.Rect, k int64) {
	srcOut := s.OutRect()
	dstOut := d.OutRect()
	for y := covered.Y0; y < covered.Y1; y++ {
		for x := covered.X0; x < covered.X1; x++ {
			di := pixOffset(dstOut, x, y)
			switch d.Op {
			case Subsample:
				// dst sample point base (x·Zd, y·Zd) = src out pixel (x·k, y·k).
				si := pixOffset(srcOut, x*k, y*k)
				copy(dstData[di:di+3], srcData[si:si+3])
			case Average:
				var r, g, b int64
				for v := y * k; v < (y+1)*k; v++ {
					for u := x * k; u < (x+1)*k; u++ {
						si := pixOffset(srcOut, u, v)
						r += int64(srcData[si])
						g += int64(srcData[si+1])
						b += int64(srcData[si+2])
					}
				}
				n := k * k
				dstData[di] = byte(r / n)
				dstData[di+1] = byte(g / n)
				dstData[di+2] = byte(b / n)
			}
		}
	}
}

// subsamplePixelsRef is the scalar reference for subsamplePixels.
func subsamplePixelsRef(page []byte, pageRect geom.Rect, dst []byte, m Meta, outPiece geom.Rect) {
	dstOut := m.OutRect()
	for y := outPiece.Y0; y < outPiece.Y1; y++ {
		for x := outPiece.X0; x < outPiece.X1; x++ {
			si := pixOffset3(pageRect, x*m.Zoom, y*m.Zoom)
			di := pixOffset(dstOut, x, y)
			copy(dst[di:di+3], page[si:si+3])
		}
	}
}

// refAccum is the reference averaging accumulator: RGB sums and a pixel
// count for every cell of the output grid.
type refAccum struct {
	grid geom.Rect
	zoom int64
	sums []uint64 // 3 per pixel
	cnt  []uint32
}

// addRef is the scalar reference for folding a page's piece into the
// averaging pass: per input pixel it recomputes the page offset, divides
// down to the output cell, and checks grid membership.
func (a *refAccum) addRef(page []byte, pageRect, piece geom.Rect) {
	for by := piece.Y0; by < piece.Y1; by++ {
		for bx := piece.X0; bx < piece.X1; bx++ {
			si := pixOffset3(pageRect, bx, by)
			ox := geom.FloorDiv(bx, a.zoom)
			oy := geom.FloorDiv(by, a.zoom)
			if !a.grid.ContainsPoint(ox, oy) {
				continue
			}
			idx := (oy-a.grid.Y0)*a.grid.Dx() + (ox - a.grid.X0)
			a.sums[3*idx] += uint64(page[si])
			a.sums[3*idx+1] += uint64(page[si+1])
			a.sums[3*idx+2] += uint64(page[si+2])
			a.cnt[idx]++
		}
	}
}

// finishRef is the scalar reference for resolving the averaging pass: every
// cell that received pixels gets the floor mean of what it received.
func (a *refAccum) finishRef(dst []byte, m Meta) {
	dstOut := m.OutRect()
	for y := a.grid.Y0; y < a.grid.Y1; y++ {
		for x := a.grid.X0; x < a.grid.X1; x++ {
			idx := (y-a.grid.Y0)*a.grid.Dx() + (x - a.grid.X0)
			n := uint64(a.cnt[idx])
			if n == 0 {
				continue
			}
			di := pixOffset(dstOut, x, y)
			dst[di] = byte(a.sums[3*idx] / n)
			dst[di+1] = byte(a.sums[3*idx+1] / n)
			dst[di+2] = byte(a.sums[3*idx+2] / n)
		}
	}
}

// computeRawRef is the original single-threaded ComputeRaw loop over the
// scalar reference kernels (without prefetch hints). It is the end-to-end
// oracle the optimized — possibly parallel — ComputeRaw is property-tested
// against.
func (a *App) computeRawRef(m Meta, outSub geom.Rect, out []byte, pr pageFetcher) {
	l := a.Table.Get(m.DS)
	baseNeed := outSub.Mul(m.Zoom).Intersect(m.Rect)
	if baseNeed.Empty() {
		return
	}
	var acc *refAccum
	if m.Op == Average {
		acc = newAvgAccumRef(outSub, m.Zoom)
	}
	for _, p := range l.PagesInRect(baseNeed) {
		data := pr(m.DS, p)
		pageRect := l.PageRect(p)
		piece := pageRect.Intersect(baseNeed)
		if piece.Empty() || data == nil {
			continue
		}
		switch m.Op {
		case Subsample:
			subsamplePixelsRef(data, pageRect, out, m, sampleGrid(piece, m.Zoom))
		case Average:
			acc.addRef(data, pageRect, piece)
		}
	}
	if acc != nil {
		acc.finishRef(out, m)
	}
}

// pageFetcher is the minimal page source computeRawRef needs (no rt.Ctx, no
// modelled costs).
type pageFetcher func(ds string, page int) []byte

// newAvgAccumRef allocates a fresh, unpooled accumulator so the reference
// path is independent of the scratch-buffer pool it is testing.
func newAvgAccumRef(grid geom.Rect, zoom int64) *refAccum {
	n := grid.Area()
	return &refAccum{grid: grid, zoom: zoom, sums: make([]uint64, 3*n), cnt: make([]uint32, n)}
}
