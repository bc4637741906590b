package spatial

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mqsched/internal/geom"
)

func TestEmptyTree(t *testing.T) {
	tr := NewTree[int]()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Search(geom.R(0, 0, 100, 100), nil); len(got) != 0 {
		t.Fatalf("Search on empty = %v", got)
	}
	if tr.Delete(geom.R(0, 0, 1, 1), 7) {
		t.Fatal("Delete on empty succeeded")
	}
}

func TestInsertSearchBasic(t *testing.T) {
	tr := NewTree[string]()
	tr.Insert(geom.R(0, 0, 10, 10), "a")
	tr.Insert(geom.R(20, 20, 30, 30), "b")
	tr.Insert(geom.R(5, 5, 25, 25), "c")

	got := tr.Search(geom.R(8, 8, 9, 9), nil)
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Search = %v", got)
	}
	if got := tr.Search(geom.R(100, 100, 110, 110), nil); len(got) != 0 {
		t.Fatalf("disjoint Search = %v", got)
	}
	// Empty search rect matches nothing.
	if got := tr.Search(geom.Rect{}, nil); len(got) != 0 {
		t.Fatalf("empty-rect Search = %v", got)
	}
}

func TestInsertEmptyRectPanics(t *testing.T) {
	tr := NewTree[int]()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(geom.Rect{}, 1)
}

func TestDelete(t *testing.T) {
	tr := NewTree[int]()
	tr.Insert(geom.R(0, 0, 10, 10), 1)
	tr.Insert(geom.R(0, 0, 10, 10), 2) // same rect, different value
	if !tr.Delete(geom.R(0, 0, 10, 10), 1) {
		t.Fatal("Delete failed")
	}
	if tr.Delete(geom.R(0, 0, 10, 10), 1) {
		t.Fatal("double Delete succeeded")
	}
	got := tr.Search(geom.R(0, 0, 10, 10), nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("after delete Search = %v", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// brute is the oracle: a flat list.
type brute struct {
	rects  []geom.Rect
	values []int
}

func (b *brute) insert(r geom.Rect, v int) {
	b.rects = append(b.rects, r)
	b.values = append(b.values, v)
}

func (b *brute) delete(r geom.Rect, v int) bool {
	for i := range b.values {
		if b.values[i] == v && b.rects[i].Eq(r) {
			b.rects = append(b.rects[:i], b.rects[i+1:]...)
			b.values = append(b.values[:i], b.values[i+1:]...)
			return true
		}
	}
	return false
}

func (b *brute) search(r geom.Rect) []int {
	var out []int
	for i := range b.values {
		if b.rects[i].Overlaps(r) {
			out = append(out, b.values[i])
		}
	}
	return out
}

func randTestRect(rng *rand.Rand) geom.Rect {
	x0, y0 := rng.Int63n(1000), rng.Int63n(1000)
	return geom.R(x0, y0, x0+rng.Int63n(200)+1, y0+rng.Int63n(200)+1)
}

// Property test: insert/delete sequences agree with the brute-force oracle
// after every step, and every stored entry is reachable exactly once. Three
// inputs: uniform random rectangles, many identical windows, and a zoom
// ladder of nested windows around one hotspot (the browse workload's shape).
// The last two make every pair of entries overlap heavily.
func TestAgainstOracle(t *testing.T) {
	ladder := func(rng *rand.Rand) geom.Rect {
		h := int64(8) << rng.Intn(7) // half-sides 8..512 around (500, 500)
		return geom.R(500-h, 500-h, 500+h, 500+h)
	}
	cases := []struct {
		name string
		rect func(*rand.Rand) geom.Rect
	}{
		{"random", randTestRect},
		{"identical", func(*rand.Rand) geom.Rect { return geom.R(100, 100, 300, 300) }},
		{"zoom-ladder", ladder},
	}
	everything := geom.R(0, 0, 1<<20, 1<<20)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(123))
			tr := NewTree[int]()
			or := &brute{}
			for step := 0; step < 3000; step++ {
				if rng.Intn(10) < 6 || len(or.values) == 0 { // insert
					r := tc.rect(rng)
					tr.Insert(r, step)
					or.insert(r, step)
				} else { // delete a random live value
					k := rng.Intn(len(or.values))
					r, v := or.rects[k], or.values[k]
					gotOK := tr.Delete(r, v)
					wantOK := or.delete(r, v)
					if gotOK != wantOK || !gotOK {
						t.Fatalf("step %d: Delete = %v, oracle %v", step, gotOK, wantOK)
					}
				}
				q := tc.rect(rng)
				got := tr.Search(q, nil)
				want := or.search(q)
				sort.Ints(got)
				sort.Ints(want)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: search %v: got %v, want %v", step, q, got, want)
				}
				if tr.Len() != len(or.values) {
					t.Fatalf("step %d: Len = %d, live = %d", step, tr.Len(), len(or.values))
				}
				if n := len(tr.Search(everything, nil)); n != tr.Len() {
					t.Fatalf("step %d: %d entries reachable, Len = %d", step, n, tr.Len())
				}
			}
		})
	}
}

// Deleting everything returns the index to a usable empty state.
func TestDrainAndRefill(t *testing.T) {
	tr := NewTree[int]()
	rng := rand.New(rand.NewSource(9))
	rects := make([]geom.Rect, 200)
	for i := range rects {
		rects[i] = randTestRect(rng)
		tr.Insert(rects[i], i)
	}
	for i, r := range rects {
		if !tr.Delete(r, i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after drain", tr.Len())
	}
	// Refill to verify the index is still usable.
	for i, r := range rects {
		tr.Insert(r, i)
	}
	if got := len(tr.Search(geom.R(0, 0, 1200, 1200), nil)); got != 200 {
		t.Fatalf("refill Search found %d", got)
	}
}

func TestSearchAppendsToOut(t *testing.T) {
	tr := NewTree[int]()
	tr.Insert(geom.R(0, 0, 5, 5), 1)
	out := []int{99}
	out = tr.Search(geom.R(0, 0, 10, 10), out)
	if len(out) != 2 || out[0] != 99 || out[1] != 1 {
		t.Fatalf("out = %v", out)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTree[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(randTestRect(rng), i)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTree[int]()
	for i := 0; i < 10000; i++ {
		tr.Insert(randTestRect(rng), i)
	}
	b.ResetTimer()
	var out []int
	for i := 0; i < b.N; i++ {
		out = tr.Search(randTestRect(rng), out[:0])
	}
}
