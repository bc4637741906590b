package vm

import (
	"mqsched/internal/dataset"
	"mqsched/internal/geom"
)

// The paper's slides are proprietary digitized microscopy images. We
// substitute a deterministic synthetic slide: Pixel is a pure function of
// (dataset, x, y) producing smoothly varying RGB values with high-frequency
// texture, so real-runtime kernels compute meaningful averages and tests can
// compare query results against a brute-force oracle.

// Pixel returns the RGB value of base pixel (x, y) of slide ds.
func Pixel(ds string, x, y int64) (r, g, b byte) {
	var p [BytesPerPixel]byte
	pixelRow(p[:], hash64(ds), x, y)
	return p[0], p[1], p[2]
}

// pixelRow writes the pixels (x0, y), (x0+1, y), … of the slide whose name
// hashes to h into dst, three bytes each: low-frequency structure ("tissue")
// plus hashed high-frequency noise. Pixel and GeneratePage both go through
// it, so a page is Pixel by construction; the hash and the y terms are taken
// once per row.
func pixelRow(dst []byte, h uint64, x0, y int64) {
	hy := h ^ uint64(y)*0xbf58476d1ce4e5b9
	ly := y>>6 + int64(h)
	by := byte(y)
	x := x0
	for i := 0; i+2 < len(dst); i += 3 {
		n := mix64(hy ^ uint64(x)*0x9e3779b97f4a7c15)
		dst[i] = byte(x>>6+ly) + byte(n)
		dst[i+1] = byte(x) ^ byte(n>>8)
		dst[i+2] = by ^ byte(n>>16)
		x++
	}
}

func hash64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer over the pixel's hashed coordinates.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// NewSlide builds a VM slide layout: width×height 3-byte pixels in 64 KB
// square pages (dataset.VMPageSide).
func NewSlide(name string, width, height int64) *dataset.Layout {
	return dataset.New(name, width, height, BytesPerPixel, dataset.VMPageSide)
}

// GeneratePage is the disk.Generator for VM slides: the page payload is
// row-major RGB over the page's (possibly clipped) rectangle.
func GeneratePage(l *dataset.Layout, page int) []byte {
	r := l.PageRect(page)
	out := make([]byte, r.Area()*BytesPerPixel)
	h := hash64(l.Name)
	row := r.Dx() * BytesPerPixel
	for y := r.Y0; y < r.Y1; y++ {
		i := (y - r.Y0) * row
		pixelRow(out[i:i+row], h, r.X0, y)
	}
	return out
}

// RenderOracle computes a query's full output image directly from Pixel,
// bypassing the middleware — the ground truth for correctness tests.
func RenderOracle(m Meta) []byte {
	grid := m.OutRect()
	out := make([]byte, grid.Area()*BytesPerPixel)
	for y := grid.Y0; y < grid.Y1; y++ {
		for x := grid.X0; x < grid.X1; x++ {
			di := pixOffset(grid, x, y)
			switch m.Op {
			case Subsample:
				r, g, b := Pixel(m.DS, x*m.Zoom, y*m.Zoom)
				out[di], out[di+1], out[di+2] = r, g, b
			case Average:
				var sr, sg, sb uint64
				for v := y * m.Zoom; v < (y+1)*m.Zoom; v++ {
					for u := x * m.Zoom; u < (x+1)*m.Zoom; u++ {
						r, g, b := Pixel(m.DS, u, v)
						sr += uint64(r)
						sg += uint64(g)
						sb += uint64(b)
					}
				}
				n := uint64(m.Zoom * m.Zoom)
				out[di] = byte(sr / n)
				out[di+1] = byte(sg / n)
				out[di+2] = byte(sb / n)
			}
		}
	}
	return out
}

// oracleRegion is like RenderOracle but fills only sub (output coordinates)
// of an existing buffer laid out over m.OutRect(); used by tests that check
// partial coverage.
func oracleRegion(m Meta, sub geom.Rect, dst []byte) {
	grid := m.OutRect()
	full := RenderOracle(Meta{DS: m.DS, Rect: sub.Mul(m.Zoom), Zoom: m.Zoom, Op: m.Op})
	for y := sub.Y0; y < sub.Y1; y++ {
		srcOff := (y - sub.Y0) * sub.Dx() * BytesPerPixel
		dstOff := pixOffset(grid, sub.X0, y)
		copy(dst[dstOff:dstOff+sub.Dx()*BytesPerPixel], full[srcOff:srcOff+sub.Dx()*BytesPerPixel])
	}
}
