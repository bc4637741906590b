// Package geom provides the 2-D integer rectangle arithmetic used throughout
// the query server: intersection tests for the overlap operator, area
// computations for the overlap index (Equation 4 of the paper), and exact
// region subtraction for sub-query generation (the portions of a query window
// not covered by cached results).
//
// Rectangles are half-open: a Rect covers pixels (x, y) with
// X0 <= x < X1 and Y0 <= y < Y1. The empty rectangle is any Rect with
// X0 >= X1 or Y0 >= Y1; all empty rectangles behave identically.
package geom

import "fmt"

// Rect is a half-open axis-aligned rectangle on the integer grid.
type Rect struct {
	X0, Y0 int64 // inclusive lower corner
	X1, Y1 int64 // exclusive upper corner
}

// R is shorthand for constructing a Rect.
func R(x0, y0, x1, y1 int64) Rect { return Rect{x0, y0, x1, y1} }

// Empty reports whether r covers no pixels.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Dx returns the width of r (0 for empty rectangles).
func (r Rect) Dx() int64 {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// Dy returns the height of r (0 for empty rectangles).
func (r Rect) Dy() int64 {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the number of pixels covered by r.
func (r Rect) Area() int64 { return r.Dx() * r.Dy() }

// Canon returns a canonical form of r: the zero Rect if r is empty,
// otherwise r itself. Canonical forms make empty rectangles comparable
// with ==.
func (r Rect) Canon() Rect {
	if r.Empty() {
		return Rect{}
	}
	return r
}

// Eq reports whether r and s cover exactly the same pixels. All empty
// rectangles are equal to each other.
func (r Rect) Eq(s Rect) bool { return r.Canon() == s.Canon() }

// Intersect returns the largest rectangle contained in both r and s.
// The result is canonical (the zero Rect) when they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	t := Rect{
		X0: max64(r.X0, s.X0),
		Y0: max64(r.Y0, s.Y0),
		X1: min64(r.X1, s.X1),
		Y1: min64(r.Y1, s.Y1),
	}
	return t.Canon()
}

// Overlaps reports whether r and s share at least one pixel.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Contains reports whether every pixel of s lies in r. The empty rectangle
// is contained in everything.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	if r.Empty() {
		return false
	}
	return r.X0 <= s.X0 && s.X1 <= r.X1 && r.Y0 <= s.Y0 && s.Y1 <= r.Y1
}

// ContainsPoint reports whether pixel (x, y) lies in r.
func (r Rect) ContainsPoint(x, y int64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s.Canon()
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: min64(r.X0, s.X0),
		Y0: min64(r.Y0, s.Y0),
		X1: max64(r.X1, s.X1),
		Y1: max64(r.Y1, s.Y1),
	}
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int64) Rect {
	if r.Empty() {
		return Rect{}
	}
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Scale returns r with every coordinate divided by f (f > 0), rounding the
// lower corner down and the upper corner up, so that the result covers the
// image of r under pixel coarsening by a factor of f. It is used to map a
// base-resolution region to the coordinate grid of a zoomed-out image.
func (r Rect) Scale(f int64) Rect {
	if f <= 0 {
		panic(fmt.Sprintf("geom: Scale by non-positive factor %d", f))
	}
	if r.Empty() {
		return Rect{}
	}
	return Rect{
		X0: floorDiv(r.X0, f),
		Y0: floorDiv(r.Y0, f),
		X1: ceilDiv(r.X1, f),
		Y1: ceilDiv(r.Y1, f),
	}
}

// ScaleInner returns the largest rectangle on the coarsened grid (factor f)
// whose preimage lies entirely inside r: the output pixels that can be
// computed exactly from source pixels within r. Compare Scale, which returns
// the covering rectangle.
func (r Rect) ScaleInner(f int64) Rect {
	if f <= 0 {
		panic(fmt.Sprintf("geom: ScaleInner by non-positive factor %d", f))
	}
	if r.Empty() {
		return Rect{}
	}
	t := Rect{
		X0: ceilDiv(r.X0, f),
		Y0: ceilDiv(r.Y0, f),
		X1: floorDiv(r.X1, f),
		Y1: floorDiv(r.Y1, f),
	}
	return t.Canon()
}

// Mul returns r with every coordinate multiplied by f (f > 0): the preimage
// of r under pixel coarsening by a factor of f.
func (r Rect) Mul(f int64) Rect {
	if f <= 0 {
		panic(fmt.Sprintf("geom: Mul by non-positive factor %d", f))
	}
	if r.Empty() {
		return Rect{}
	}
	return Rect{r.X0 * f, r.Y0 * f, r.X1 * f, r.Y1 * f}
}

// Sub returns the set difference r − s as a list of disjoint rectangles.
// The result has at most four elements (the bands above, below, left of and
// right of s within r).
func (r Rect) Sub(s Rect) []Rect { return r.appendSub(nil, s) }

// appendSub appends the pieces of Sub(s) to dst and returns the extended
// slice.
func (r Rect) appendSub(dst []Rect, s Rect) []Rect {
	s = r.Intersect(s)
	if s.Empty() {
		if r.Empty() {
			return dst
		}
		return append(dst, r)
	}
	if s.Eq(r) {
		return dst
	}
	// Band above s (full width of r).
	if s.Y0 > r.Y0 {
		dst = append(dst, Rect{r.X0, r.Y0, r.X1, s.Y0})
	}
	// Band below s (full width of r).
	if s.Y1 < r.Y1 {
		dst = append(dst, Rect{r.X0, s.Y1, r.X1, r.Y1})
	}
	// Left and right slivers within s's vertical extent.
	if s.X0 > r.X0 {
		dst = append(dst, Rect{r.X0, s.Y0, s.X0, s.Y1})
	}
	if s.X1 < r.X1 {
		dst = append(dst, Rect{s.X1, s.Y0, r.X1, s.Y1})
	}
	return dst
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Clamp returns v held to [lo, hi], or lo when the interval is empty: the
// corner of a window that must stay inside a dataset smaller than itself.
func Clamp(v, lo, hi int64) int64 { return max(lo, min(v, hi)) }

// FloorDiv returns floor(a / b) for b > 0.
func FloorDiv(a, b int64) int64 { return floorDiv(a, b) }

// CeilDiv returns ceil(a / b) for b > 0.
func CeilDiv(a, b int64) int64 { return ceilDiv(a, b) }

// floorDiv returns floor(a / b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a / b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}
