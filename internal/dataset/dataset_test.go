package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mqsched/internal/geom"
)

func TestLayoutBasics(t *testing.T) {
	l := New("d1", 1000, 600, 3, 100)
	if l.PagesX() != 10 || l.PagesY() != 6 || l.NumPages() != 60 {
		t.Fatalf("pages %dx%d total %d", l.PagesX(), l.PagesY(), l.NumPages())
	}
	if l.TotalBytes() != 1000*600*3 {
		t.Fatalf("TotalBytes = %d", l.TotalBytes())
	}
	if l.FullPageBytes() != 100*100*3 {
		t.Fatalf("FullPageBytes = %d", l.FullPageBytes())
	}
	if !l.Bounds().Eq(geom.R(0, 0, 1000, 600)) {
		t.Fatalf("Bounds = %v", l.Bounds())
	}
}

func TestRaggedEdges(t *testing.T) {
	l := New("d", 250, 150, 3, 100)
	if l.PagesX() != 3 || l.PagesY() != 2 {
		t.Fatalf("pages %dx%d", l.PagesX(), l.PagesY())
	}
	// Page 2 is the top-right ragged page: 50 wide, 100 tall.
	if got := l.PageRect(2); !got.Eq(geom.R(200, 0, 250, 100)) {
		t.Fatalf("PageRect(2) = %v", got)
	}
	if got := l.PageBytes(2); got != 50*100*3 {
		t.Fatalf("PageBytes(2) = %d", got)
	}
	// Bottom-right corner page: 50x50.
	if got := l.PageRect(5); !got.Eq(geom.R(200, 100, 250, 150)) {
		t.Fatalf("PageRect(5) = %v", got)
	}
	// Sum of all page bytes equals the dataset size.
	var sum int64
	for i := 0; i < l.NumPages(); i++ {
		sum += l.PageBytes(i)
	}
	if sum != l.TotalBytes() {
		t.Fatalf("page bytes sum %d != total %d", sum, l.TotalBytes())
	}
}

func TestPageAt(t *testing.T) {
	l := New("d", 1000, 600, 3, 100)
	if got := l.PageAt(0, 0); got != 0 {
		t.Fatalf("PageAt(0,0) = %d", got)
	}
	if got := l.PageAt(999, 599); got != 59 {
		t.Fatalf("PageAt(999,599) = %d", got)
	}
	if got := l.PageAt(150, 250); got != 21 {
		t.Fatalf("PageAt(150,250) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PageAt outside bounds should panic")
		}
	}()
	l.PageAt(1000, 0)
}

func TestPagesInRect(t *testing.T) {
	l := New("d", 1000, 600, 3, 100)
	// A window within a single page.
	got := l.PagesInRect(geom.R(10, 10, 20, 20))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-page window: %v", got)
	}
	// A window straddling a 2x2 page block.
	got = l.PagesInRect(geom.R(150, 150, 250, 250))
	want := []int{11, 12, 21, 22}
	if len(got) != 4 {
		t.Fatalf("2x2 window: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("2x2 window: %v, want %v", got, want)
		}
	}
	// Windows outside the image clip to nothing.
	if got := l.PagesInRect(geom.R(2000, 2000, 3000, 3000)); got != nil {
		t.Fatalf("outside window: %v", got)
	}
	// Full-image window returns every page, ascending.
	got = l.PagesInRect(l.Bounds())
	if len(got) != 60 {
		t.Fatalf("full window returned %d pages", len(got))
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("pages not ascending: %v", got)
		}
	}
}

// Property: every returned page intersects the window; every non-returned
// page does not; qinputsize equals the sum of returned page sizes.
func TestPagesInRectProperty(t *testing.T) {
	l := New("d", 730, 410, 3, 97) // deliberately ragged
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		x0, y0 := rng.Int63n(800)-20, rng.Int63n(450)-20
		r := geom.R(x0, y0, x0+rng.Int63n(300)+1, y0+rng.Int63n(300)+1)
		got := l.PagesInRect(r)
		inSet := map[int]bool{}
		var bytes int64
		for _, p := range got {
			inSet[p] = true
			if !l.PageRect(p).Overlaps(r) {
				t.Fatalf("page %d does not intersect %v", p, r)
			}
			bytes += l.PageBytes(p)
		}
		for p := 0; p < l.NumPages(); p++ {
			if !inSet[p] && l.PageRect(p).Overlaps(r) {
				t.Fatalf("page %d intersects %v but was not returned", p, r)
			}
		}
		if got := l.InputBytes(r); got != bytes {
			t.Fatalf("InputBytes = %d, want %d", got, bytes)
		}
	}
}

// inputBytesByPages is qinputsize summed page by page over the index lookup:
// the reference InputBytes must equal.
func inputBytesByPages(l *Layout, r geom.Rect) int64 {
	var total int64
	for _, idx := range l.PagesInRect(r) {
		total += l.PageBytes(idx)
	}
	return total
}

// TestInputBytesMatchesPageLoop compares the closed form with the page loop
// on ragged layouts, for rects inside, straddling and wholly outside the
// bounds, and empty ones.
func TestInputBytesMatchesPageLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, l := range []*Layout{
		New("d", 730, 410, 3, 97),
		New("d", 1000, 600, 3, 100),
		New("d", 5, 1, 1, 7),
		New("d", 4096, 3001, 3, VMPageSide),
	} {
		rects := []geom.Rect{l.Bounds(), geom.R(-50, -50, 0, 0), geom.R(l.Width, 0, l.Width+10, 10), geom.R(3, 3, 3, 9)}
		for trial := 0; trial < 2000; trial++ {
			x0 := rng.Int63n(l.Width+40) - 20
			y0 := rng.Int63n(l.Height+40) - 20
			// Either side may be 0 long: an empty rect.
			rects = append(rects, geom.R(x0, y0, x0+rng.Int63n(l.Width/2+2), y0+rng.Int63n(l.Height/2+2)))
		}
		for _, r := range rects {
			if got, want := l.InputBytes(r), inputBytesByPages(l, r); got != want {
				t.Fatalf("%dx%d/%d: InputBytes(%v) = %d, page loop %d", l.Width, l.Height, l.PageSide, r, got, want)
			}
		}
	}
}

// TestPageCountMatchesPagesInRect compares the closed form with the index
// lookup's list on layouts and windows whose sides are a multiple of the page
// side, one pixel more, or one pixel less, at offsets on and off the page
// grid, inside the image and clipped by it.
func TestPageCountMatchesPagesInRect(t *testing.T) {
	for _, side := range []int64{1, 7, VMPageSide} {
		var sizes []int64
		for k := int64(1); k <= 3; k++ {
			sizes = append(sizes, k*side-1, k*side, k*side+1)
		}
		for _, w := range sizes {
			for _, h := range sizes {
				if w == 0 || h == 0 {
					continue
				}
				l := New("d", w, h, 3, side)
				for _, o := range []int64{-side - 1, -1, 0, 1, side - 1, side, w - 1} {
					for _, dx := range sizes {
						for _, dy := range sizes {
							r := geom.R(o, o, o+dx, o+dy)
							if got, want := l.PageCount(r), len(l.PagesInRect(r)); got != want {
								t.Fatalf("%dx%d/%d: PageCount(%v) = %d, PagesInRect lists %d", w, h, side, r, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestPageBytesMatchesRect compares PageBytes with the clipped page rect's
// area for every page of layouts whose sides are a multiple of the page side,
// one pixel more, or one pixel less.
func TestPageBytesMatchesRect(t *testing.T) {
	for _, side := range []int64{1, 2, 7, VMPageSide} {
		var sizes []int64
		for k := int64(1); k <= 4; k++ {
			for _, n := range []int64{k*side - 1, k * side, k*side + 1} {
				if n > 0 {
					sizes = append(sizes, n)
				}
			}
		}
		for _, w := range sizes {
			for _, h := range sizes {
				l := New("d", w, h, 3, side)
				for i := 0; i < l.NumPages(); i++ {
					if got, want := l.PageBytes(i), l.PageRect(i).Area()*3; got != want {
						t.Fatalf("%dx%d/%d: PageBytes(%d) = %d, rect %v holds %d", w, h, side, i, got, l.PageRect(i), want)
					}
				}
			}
		}
	}
}

func TestVMPageSide(t *testing.T) {
	// The paper's 64KB page: a square 3-byte-pixel page must fit in 64KB.
	if VMPageSide*VMPageSide*3 > 64*1024 {
		t.Fatalf("VM page %d bytes exceeds 64KB", VMPageSide*VMPageSide*3)
	}
	// And be nearly full (within 2%).
	if VMPageSide*VMPageSide*3 < 63*1024 {
		t.Fatalf("VM page only %d bytes", VMPageSide*VMPageSide*3)
	}
}

func TestTable(t *testing.T) {
	a := New("a", 100, 100, 3, 10)
	b := New("b", 200, 200, 3, 10)
	tbl := NewTable(a, b)
	if tbl.Get("a") != a || tbl.Get("b") != b {
		t.Fatal("Get returned wrong layout")
	}
	if _, ok := tbl.Lookup("c"); ok {
		t.Fatal("Lookup of unknown dataset succeeded")
	}
	if n := tbl.Names(); len(n) != 2 || n[0] != "a" || n[1] != "b" {
		t.Fatalf("Names = %v", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get of unknown dataset should panic")
			}
		}()
		tbl.Get("zzz")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate dataset should panic")
			}
		}()
		NewTable(a, a)
	}()
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid layout should panic")
		}
	}()
	New("bad", 0, 10, 3, 10)
}

// TestPagesMatchPagesInRect holds the page set to the list it stands for:
// Len, At, Append, the row runs and every Slice agree with PagesInRect
// element for element, on ragged layouts, for random windows (clipped by the
// ragged last row and column or by the image), empty windows and one-page
// windows.
func TestPagesMatchPagesInRect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, l := range []*Layout{
		New("d", 730, 410, 3, 97),
		New("d", 1000, 600, 3, 100),
		New("d", 5, 1, 1, 7),
		New("d", 4096, 3001, 3, VMPageSide),
	} {
		var rects []geom.Rect
		for p := 0; p < l.NumPages(); p += 1 + l.NumPages()/50 {
			pr := l.PageRect(p)
			rects = append(rects, pr, geom.R(pr.X0, pr.Y0, pr.X0+1, pr.Y0+1)) // one page
		}
		last := l.PageRect(l.NumPages() - 1)
		rects = append(rects,
			l.Bounds(), geom.Rect{}, geom.R(3, 3, 3, 9), geom.R(-50, -50, 0, 0), // all, empty, outside
			geom.R(last.X0-1, last.Y0-1, l.Width+20, l.Height+20), // the ragged corner
			geom.R(0, last.Y0, l.Width, l.Height),                 // the ragged last row
			geom.R(last.X0, 0, l.Width, l.Height))                 // the ragged last column
		for trial := 0; trial < 2000; trial++ {
			x0 := rng.Int63n(l.Width+40) - 20
			y0 := rng.Int63n(l.Height+40) - 20
			rects = append(rects, geom.R(x0, y0, x0+rng.Int63n(l.Width/2+2), y0+rng.Int63n(l.Height/2+2)))
		}
		for _, r := range rects {
			want := l.PagesInRect(r)
			ps := l.Pages(r)
			checkPages(t, fmt.Sprintf("%dx%d/%d: Pages(%v)", l.Width, l.Height, l.PageSide, r), l, ps, want)
			for k := 0; k < 3 && len(want) > 0; k++ {
				i := rng.Intn(len(want) + 1)
				j := i + rng.Intn(len(want)-i+1)
				checkPages(t, fmt.Sprintf("%dx%d/%d: Pages(%v).Slice(%d, %d)", l.Width, l.Height, l.PageSide, r, i, j), l, ps.Slice(i, j), want[i:j])
			}
		}
	}
}

// checkPages compares ps with the list want: Len, At, Append, and the runs,
// which must hold want in order, each one consecutive pages of one page row.
func checkPages(t *testing.T, name string, l *Layout, ps Pages, want []int) {
	t.Helper()
	if ps.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, want %d", name, ps.Len(), len(want))
	}
	for i, p := range want {
		if got := ps.At(i); got != p {
			t.Fatalf("%s: At(%d) = %d, want %d", name, i, got, p)
		}
	}
	if got := ps.Append([]int{-1}, 0, ps.Len()); got[0] != -1 || !slices.Equal(got[1:], want) {
		t.Fatalf("%s: Append = %v, want -1 then %v", name, got, want)
	}
	var runs []int
	for k := range ps.Runs() {
		run := ps.Run(k)
		if run.Len() == 0 {
			t.Fatalf("%s: run %d is empty", name, k)
		}
		if k > 0 && int64(run.At(0))/l.PagesX() == int64(ps.Run(k-1).At(0))/l.PagesX() {
			t.Fatalf("%s: runs %d and %d share a page row", name, k-1, k)
		}
		for i := range run.Len() {
			if i > 0 && run.At(i) != run.At(i-1)+1 {
				t.Fatalf("%s: run %d is not consecutive: %v", name, k, run.Append(nil, 0, run.Len()))
			}
			if int64(run.At(i))/l.PagesX() != int64(run.At(0))/l.PagesX() {
				t.Fatalf("%s: run %d spans page rows: %v", name, k, run.Append(nil, 0, run.Len()))
			}
			runs = append(runs, run.At(i))
		}
	}
	if !slices.Equal(runs, want) {
		t.Fatalf("%s: runs in order hold %v, want %v", name, runs, want)
	}
}
