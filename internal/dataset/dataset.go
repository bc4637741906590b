// Package dataset describes the on-disk organization of the input data and
// implements the index manager: "each slide is regularly partitioned into
// data chunks, each of which is a rectangular subregion of the 2D image"
// (paper §3). The index maps a query window to the chunk (page) identifiers
// that intersect it, a Pages rectangle — the index lookup step that also
// yields qinputsize.
package dataset

import (
	"fmt"

	"mqsched/internal/geom"
)

// Layout describes one dataset: a 2-D image of Width×Height pixels of
// BytesPerPixel bytes, partitioned into square pages of PageSide×PageSide
// pixels (the last row/column of pages may be ragged). Page indices are
// row-major.
//
// A layout is built by New and never written after: New derives the page
// grid and the name's hash from the fields once, and every method reads
// those. No code assigns a layout's fields after New.
type Layout struct {
	Name          string
	Width, Height int64 // base-resolution pixels
	BytesPerPixel int64
	PageSide      int64

	pagesX, pagesY int64  // page columns and rows
	nameHash       uint32 // HashName(Name)
}

// VMPageSide is the page edge so that a full square page holds just under
// 64 KB of 3-byte pixels, matching the paper's 64 KB pages:
// 147×147×3 = 64827 bytes.
const VMPageSide = 147

// New returns a layout, validating the dimensions.
func New(name string, width, height, bytesPerPixel, pageSide int64) *Layout {
	if width <= 0 || height <= 0 || bytesPerPixel <= 0 || pageSide <= 0 {
		panic(fmt.Sprintf("dataset: invalid layout %q %dx%dx%d/%d", name, width, height, bytesPerPixel, pageSide))
	}
	return &Layout{Name: name, Width: width, Height: height, BytesPerPixel: bytesPerPixel, PageSide: pageSide,
		pagesX: (width + pageSide - 1) / pageSide, pagesY: (height + pageSide - 1) / pageSide, nameHash: HashName(name)}
}

// HashName is the FNV-32a hash of a name, computed inline (no hash.Hash32).
// The disk farm stripes a dataset's pages from its name's hash, and tells
// the processes reading a spindle apart by theirs (rt.NameHash).
func HashName(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// NameHash returns HashName(l.Name), computed once by New.
func (l *Layout) NameHash() uint32 { return l.nameHash }

// Bounds returns the full image rectangle.
func (l *Layout) Bounds() geom.Rect { return geom.R(0, 0, l.Width, l.Height) }

// PagesX returns the number of page columns.
func (l *Layout) PagesX() int64 { return l.pagesX }

// PagesY returns the number of page rows.
func (l *Layout) PagesY() int64 { return l.pagesY }

// NumPages returns the total number of pages.
func (l *Layout) NumPages() int { return int(l.pagesX * l.pagesY) }

// PageRect returns the pixel rectangle covered by page idx (clipped to the
// image bounds for ragged edges).
func (l *Layout) PageRect(idx int) geom.Rect {
	px := l.PagesX()
	row := int64(idx) / px
	col := int64(idx) % px
	r := geom.R(col*l.PageSide, row*l.PageSide, (col+1)*l.PageSide, (row+1)*l.PageSide)
	return r.Intersect(l.Bounds())
}

// PageBytes returns the payload size of page idx in bytes, which must be in
// [0, NumPages): FullPageBytes, less what the image bounds clip off a page in
// the last page row or column.
func (l *Layout) PageBytes(idx int) int64 {
	x0 := int64(idx) % l.pagesX * l.PageSide
	y0 := int64(idx) / l.pagesX * l.PageSide
	return min(l.PageSide, l.Width-x0) * min(l.PageSide, l.Height-y0) * l.BytesPerPixel
}

// FullPageBytes returns the size of an interior (unclipped) page.
func (l *Layout) FullPageBytes() int64 {
	return l.PageSide * l.PageSide * l.BytesPerPixel
}

// TotalBytes returns the uncompressed dataset size.
func (l *Layout) TotalBytes() int64 {
	return l.Width * l.Height * l.BytesPerPixel
}

// PageAt returns the index of the page containing pixel (x, y), which must
// be inside Bounds.
func (l *Layout) PageAt(x, y int64) int {
	if !l.Bounds().ContainsPoint(x, y) {
		panic(fmt.Sprintf("dataset %q: PageAt(%d,%d) outside %v", l.Name, x, y, l.Bounds()))
	}
	return int((y/l.PageSide)*l.PagesX() + x/l.PageSide)
}

// Pages is a set of pages of one layout, listed in row-major (ascending)
// order — the order that maximizes sequential access on the striped disk
// farm: a stretch of a rectangle of page columns × page rows. The index
// lookup's answer for a window is the whole rectangle (Layout.Pages), and
// Slice cuts stretches of it. Every row of the set is a run of consecutive
// page indices (Run). A Pages is a small value: building one allocates
// nothing, and Len and At are O(1). The zero Pages is empty.
type Pages struct {
	first  int // index of the rectangle's top-left page
	cols   int // page columns of the rectangle
	stride int // page columns of the layout
	lo, n  int // the set is the rectangle's pages lo to lo+n-1
}

// Pages returns the pages intersecting r, clipped to the image.
func (l *Layout) Pages(r geom.Rect) Pages {
	r = r.Intersect(l.Bounds())
	if r.Empty() {
		return Pages{}
	}
	s := l.PageSide
	c0, r0 := r.X0/s, r.Y0/s
	px := l.PagesX()
	cols := (r.X1-1)/s - c0 + 1
	rows := (r.Y1-1)/s - r0 + 1
	return Pages{first: int(r0*px + c0), cols: int(cols), stride: int(px), n: int(cols * rows)}
}

// Len returns the number of pages.
func (p Pages) Len() int { return p.n }

// At returns the index of the i-th page, 0 <= i < Len.
func (p Pages) At(i int) int {
	i += p.lo
	return p.first + i/p.cols*p.stride + i%p.cols
}

// Slice returns the pages i to j-1 of p, 0 <= i <= j <= Len.
func (p Pages) Slice(i, j int) Pages {
	p.lo, p.n = p.lo+i, j-i
	return p
}

// Runs returns the number of page rows p touches.
func (p Pages) Runs() int {
	if p.n == 0 {
		return 0
	}
	return (p.lo+p.n-1)/p.cols - p.lo/p.cols + 1
}

// Run returns the pages of p in the k-th page row it touches, 0 <= k < Runs:
// a run of consecutive page indices.
func (p Pages) Run(k int) Pages {
	row := p.lo/p.cols + k
	i := max(row*p.cols, p.lo) - p.lo
	j := min((row+1)*p.cols, p.lo+p.n) - p.lo
	return p.Slice(i, j)
}

// Append appends the indices of pages i to j-1 to dst and returns the
// extended slice.
func (p Pages) Append(dst []int, i, j int) []int {
	for ; i < j; i++ {
		dst = append(dst, p.At(i))
	}
	return dst
}

// PagesInRect returns the pages intersecting r as a list: Pages(r) spelled
// out. It is the reference the page set is tested against.
func (l *Layout) PagesInRect(r geom.Rect) []int {
	r = r.Intersect(l.Bounds())
	if r.Empty() {
		return nil
	}
	c0 := r.X0 / l.PageSide
	c1 := (r.X1 - 1) / l.PageSide
	r0 := r.Y0 / l.PageSide
	r1 := (r.Y1 - 1) / l.PageSide
	px := l.PagesX()
	out := make([]int, 0, (c1-c0+1)*(r1-r0+1))
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			out = append(out, int(row*px+col))
		}
	}
	return out
}

// pageHull returns the page-aligned hull of r clipped to the image: the
// union of the whole page squares Pages(r) holds, before the image clips
// the ragged last row and column. It is empty when r misses the image.
func (l *Layout) pageHull(r geom.Rect) geom.Rect {
	r = r.Intersect(l.Bounds())
	if r.Empty() {
		return geom.Rect{}
	}
	s := l.PageSide
	return geom.R(r.X0/s*s, r.Y0/s*s, geom.CeilDiv(r.X1, s)*s, geom.CeilDiv(r.Y1, s)*s)
}

// InputBytes returns qinputsize for a window: the total payload of the pages
// intersecting r. This is the execution-time estimate used by the SJF
// ranking strategy. Those pages tile the page-aligned hull of r, so their
// payload is that hull's area, clipped again for the ragged last row and
// column.
func (l *Layout) InputBytes(r geom.Rect) int64 {
	return l.pageHull(r).Intersect(l.Bounds()).Area() * l.BytesPerPixel
}

// PageCount returns the number of pages intersecting r: Pages(r).Len().
func (l *Layout) PageCount(r geom.Rect) int { return l.Pages(r).Len() }

// Table is the set of datasets registered with the server, by name.
type Table struct {
	byName map[string]*Layout
	names  []string
}

// NewTable builds a table from layouts.
func NewTable(layouts ...*Layout) *Table {
	t := &Table{byName: map[string]*Layout{}}
	for _, l := range layouts {
		if _, dup := t.byName[l.Name]; dup {
			panic(fmt.Sprintf("dataset: duplicate dataset %q", l.Name))
		}
		t.byName[l.Name] = l
		t.names = append(t.names, l.Name)
	}
	return t
}

// Get returns the layout for name, or panics — a query for an unregistered
// dataset is a programming error upstream.
func (t *Table) Get(name string) *Layout {
	l, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown dataset %q", name))
	}
	return l
}

// Lookup returns the layout for name and whether it exists.
func (t *Table) Lookup(name string) (*Layout, bool) {
	l, ok := t.byName[name]
	return l, ok
}

// Names returns the registered dataset names in registration order.
func (t *Table) Names() []string { return t.names }
