package geom

import (
	"cmp"
	"slices"
)

// Region is a set of pixels represented as a list of disjoint rectangles.
// The query server uses regions to track which parts of a query window have
// already been produced from cached results; the remainder becomes
// sub-queries. Operations keep the rectangle list disjoint but not minimal.
type Region struct {
	rects []Rect
}

// NewRegion returns a region initially covering r (or the empty region if r
// is empty).
func NewRegion(r Rect) *Region {
	reg := &Region{}
	if !r.Empty() {
		reg.rects = []Rect{r}
	}
	return reg
}

// EmptyRegion returns a region covering nothing.
func EmptyRegion() *Region { return &Region{} }

// Rects returns the disjoint rectangles making up the region. The caller
// must not modify the returned slice.
func (g *Region) Rects() []Rect { return g.rects }

// Empty reports whether the region covers no pixels.
func (g *Region) Empty() bool { return len(g.rects) == 0 }

// Area returns the number of pixels covered.
func (g *Region) Area() int64 {
	var a int64
	for _, r := range g.rects {
		a += r.Area()
	}
	return a
}

// inlineRects is the number of pieces Subtract and Add build on the stack
// before they spill to the heap: one cut makes at most four.
const inlineRects = 8

// Subtract removes every pixel of s from the region.
func (g *Region) Subtract(s Rect) {
	if s.Empty() || len(g.rects) == 0 {
		return
	}
	out := g.rects[:0]
	var buf [inlineRects]Rect
	added := buf[:0]
	for _, r := range g.rects {
		if !r.Overlaps(s) {
			out = append(out, r)
			continue
		}
		added = r.appendSub(added, s)
	}
	g.rects = append(out, added...)
}

// SubtractRegion removes every pixel of other from the region.
func (g *Region) SubtractRegion(other *Region) {
	for _, r := range other.rects {
		g.Subtract(r)
	}
}

// Add inserts the pixels of s into the region, keeping rectangles disjoint.
func (g *Region) Add(s Rect) {
	if s.Empty() {
		return
	}
	// Insert only the parts of s not already covered, by subtracting every
	// existing rectangle from s. The pieces alternate between two buffers.
	var bufA, bufB [inlineRects]Rect
	pending, next := append(bufA[:0], s), bufB[:0]
	for _, r := range g.rects {
		next = next[:0]
		for _, p := range pending {
			next = p.appendSub(next, r)
		}
		pending, next = next, pending
		if len(pending) == 0 {
			return
		}
	}
	g.rects = append(g.rects, pending...)
}

// IntersectArea returns the number of pixels shared by the region and s.
func (g *Region) IntersectArea(s Rect) int64 {
	var a int64
	for _, r := range g.rects {
		a += r.Intersect(s).Area()
	}
	return a
}

// Covers reports whether every pixel of s is in the region.
func (g *Region) Covers(s Rect) bool {
	if s.Empty() {
		return true
	}
	return NewRegion(s).minusArea(g.rects) == 0
}

// ContainsPoint reports whether pixel (x, y) is in the region.
func (g *Region) ContainsPoint(x, y int64) bool {
	for _, r := range g.rects {
		if r.ContainsPoint(x, y) {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the region.
func (g *Region) Clone() *Region {
	c := &Region{rects: make([]Rect, len(g.rects))}
	copy(c.rects, g.rects)
	return c
}

// minusArea returns the area left after subtracting each rectangle in subs.
func (g *Region) minusArea(subs []Rect) int64 {
	tmp := g.Clone()
	for _, s := range subs {
		tmp.Subtract(s)
		if len(tmp.rects) == 0 {
			return 0
		}
	}
	return tmp.Area()
}

// Coalesce merges adjacent rectangles where possible, reducing fragmentation
// after many Subtract/Add cycles. It is a best-effort pass: it repeatedly
// merges pairs that share a full edge until no merge applies.
func (g *Region) Coalesce() {
	if len(g.rects) < 2 {
		return
	}
	merged := true
	for merged {
		merged = false
		// Disjoint rectangles have distinct corners: a total order.
		slices.SortFunc(g.rects, func(a, b Rect) int {
			if c := cmp.Compare(a.Y0, b.Y0); c != 0 {
				return c
			}
			return cmp.Compare(a.X0, b.X0)
		})
	outer:
		for i := 0; i < len(g.rects); i++ {
			for j := i + 1; j < len(g.rects); j++ {
				if m, ok := mergeRects(g.rects[i], g.rects[j]); ok {
					g.rects[i] = m
					g.rects = append(g.rects[:j], g.rects[j+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
}

// mergeRects returns the union of a and b when they tile a rectangle exactly.
func mergeRects(a, b Rect) (Rect, bool) {
	// Horizontal neighbors sharing the same vertical extent.
	if a.Y0 == b.Y0 && a.Y1 == b.Y1 && (a.X1 == b.X0 || b.X1 == a.X0) {
		return a.Union(b), true
	}
	// Vertical neighbors sharing the same horizontal extent.
	if a.X0 == b.X0 && a.X1 == b.X1 && (a.Y1 == b.Y0 || b.Y1 == a.Y0) {
		return a.Union(b), true
	}
	return Rect{}, false
}

// Uncovered returns the parts of want not covered by any rectangle in have,
// as a list of disjoint rectangles. It is the core of sub-query generation:
// "sub-queries are created to compute the results for the portions of the
// query that have not been computed from cached results" (paper, §2).
func Uncovered(want Rect, have []Rect) []Rect {
	reg := NewRegion(want)
	for _, h := range have {
		reg.Subtract(h)
		if reg.Empty() {
			return nil
		}
	}
	reg.Coalesce()
	return reg.Rects()
}
