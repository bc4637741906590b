// Package testapp provides a minimal reference implementation of the
// query.App operator model: a flat 2-D range scan with byte-per-pixel
// results and purely spatial overlap (no magnification levels). It is used
// by middleware unit tests and serves as the smallest possible template for
// writing a new application on the runtime system; see internal/vm for the
// full Virtual Microscope.
package testapp

import (
	"fmt"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
)

// Meta is a range-scan predicate: copy the region's pixels.
type Meta struct {
	DS   string
	Rect geom.Rect
}

// Dataset implements query.Meta.
func (m Meta) Dataset() string { return m.DS }

// Region implements query.Meta.
func (m Meta) Region() geom.Rect { return m.Rect }

// String implements query.Meta.
func (m Meta) String() string { return fmt.Sprintf("scan(%s, %v)", m.DS, m.Rect) }

// App is the range-scan application.
type App struct {
	Table *dataset.Table
	// CostPerOutByte is the modelled compute cost per output byte (default
	// 10ns).
	CostPerOutByte time.Duration
}

// New returns the app over the given datasets.
func New(table *dataset.Table) *App {
	return &App{Table: table, CostPerOutByte: 10 * time.Nanosecond}
}

// Name implements query.App.
func (a *App) Name() string { return "rangescan" }

// Cmp implements Equation (1): exact predicate equality.
func (a *App) Cmp(x, y query.Meta) bool {
	mx, okx := x.(Meta)
	my, oky := y.(Meta)
	return okx && oky && mx.DS == my.DS && mx.Rect.Eq(my.Rect)
}

// Overlap implements Equation (2): the fraction of dst's area covered by
// src.
func (a *App) Overlap(src, dst query.Meta) float64 {
	s, oks := src.(Meta)
	d, okd := dst.(Meta)
	if !oks || !okd || s.DS != d.DS || d.Rect.Empty() {
		return 0
	}
	return float64(s.Rect.Intersect(d.Rect).Area()) / float64(d.Rect.Area())
}

// QOutSize implements query.App: one byte per pixel.
func (a *App) QOutSize(m query.Meta) int64 { return m.(Meta).Rect.Area() }

// QInSize implements query.App.
func (a *App) QInSize(m query.Meta) int64 {
	mm := m.(Meta)
	return a.Table.Get(mm.DS).InputBytes(mm.Rect)
}

// OutputGrid implements query.App: the output grid is the region itself.
func (a *App) OutputGrid(m query.Meta) geom.Rect { return m.(Meta).Rect }

// NewBlob implements query.App.
func (a *App) NewBlob(ctx rt.Ctx, m query.Meta) *query.Blob {
	b := &query.Blob{Meta: m, Size: a.QOutSize(m)}
	if !ctx.Synthetic() {
		b.Data = make([]byte, b.Size)
	}
	return b
}

// Coverable implements query.App.
func (a *App) Coverable(src, dst query.Meta) geom.Rect {
	s, oks := src.(Meta)
	d, okd := dst.(Meta)
	if !oks || !okd || s.DS != d.DS {
		return geom.Rect{}
	}
	return s.Rect.Intersect(d.Rect)
}

// Project implements Equation (3): copy the intersecting bytes.
func (a *App) Project(ctx rt.Ctx, src *query.Blob, dst query.Meta, out *query.Blob) geom.Rect {
	s := src.Meta.(Meta)
	d := dst.(Meta)
	if s.DS != d.DS {
		return geom.Rect{}
	}
	in := s.Rect.Intersect(d.Rect)
	if in.Empty() {
		return geom.Rect{}
	}
	ctx.Compute(time.Duration(in.Area()) * a.CostPerOutByte)
	if out.Data != nil && src.Data != nil {
		copyRect(src.Data, s.Rect, out.Data, d.Rect, in)
	}
	return in
}

// ComputeRaw implements query.App: read the pages under outSub and copy
// their pixels.
func (a *App) ComputeRaw(ctx rt.Ctx, m query.Meta, outSub geom.Rect, out *query.Blob, pr query.PageReader) int64 {
	mm := m.(Meta)
	l := a.Table.Get(mm.DS)
	need := outSub.Intersect(mm.Rect)
	var read int64
	pages := l.PagesInRect(need)
	query.ForEachPage(ctx, pr, mm.DS, pages, 0, 1, func(_, i int, data []byte) {
		p := pages[i]
		pageRect := l.PageRect(p)
		piece := pageRect.Intersect(need)
		ctx.Compute(time.Duration(piece.Area()) * a.CostPerOutByte)
		read += l.PageBytes(p)
		if out.Data != nil && data != nil {
			copyPage(data, pageRect, out.Data, mm.Rect, piece, l)
		}
	})
	return read
}

// copyRect copies the pixels of region `in` from a source blob laid out
// row-major over srcRect into a destination blob laid out over dstRect
// (1 byte per pixel).
func copyRect(src []byte, srcRect geom.Rect, dst []byte, dstRect geom.Rect, in geom.Rect) {
	for y := in.Y0; y < in.Y1; y++ {
		srcOff := (y-srcRect.Y0)*srcRect.Dx() + (in.X0 - srcRect.X0)
		dstOff := (y-dstRect.Y0)*dstRect.Dx() + (in.X0 - dstRect.X0)
		copy(dst[dstOff:dstOff+in.Dx()], src[srcOff:srcOff+in.Dx()])
	}
}

// copyPage copies the pixels of `piece` from a page payload (row-major over
// pageRect at 1 byte/pixel for this toy app — the layout's BytesPerPixel
// must be 1) into the output blob.
func copyPage(page []byte, pageRect geom.Rect, dst []byte, dstRect geom.Rect, piece geom.Rect, l *dataset.Layout) {
	if l.BytesPerPixel != 1 {
		panic("testapp: real-data mode requires 1 byte/pixel layouts")
	}
	copyRect(page, pageRect, dst, dstRect, piece)
}

// Pixel returns the deterministic synthetic pixel value for (x, y) of ds.
func Pixel(ds string, x, y int64) byte {
	h := uint64(1469598103934665603)
	for _, c := range []byte(ds) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ uint64(x)) * 1099511628211
	h = (h ^ uint64(y)) * 1099511628211
	return byte(h)
}

// Generate is the disk.Generator for testapp datasets: 1 byte per pixel,
// row-major within the page.
func Generate(l *dataset.Layout, page int) []byte {
	r := l.PageRect(page)
	out := make([]byte, r.Area())
	i := 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			out[i] = Pixel(l.Name, x, y)
			i++
		}
	}
	return out
}
