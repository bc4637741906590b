package query

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/rt"
)

// fakeCtx is a foreign rt.Ctx: no clock, no span slot.
type fakeCtx struct{ syn bool }

func (f fakeCtx) Name() string          { return "test" }
func (f fakeCtx) Now() time.Duration    { return 0 }
func (f fakeCtx) Sleep(time.Duration)   {}
func (f fakeCtx) Compute(time.Duration) {}
func (f fakeCtx) Synthetic() bool       { return f.syn }

// pageData is the payload the fake readers serve for a page, so a delivery
// can be checked against the index it claims to be for.
func pageData(page int) []byte { return []byte{byte(page), byte(page >> 8)} }

// bareReader implements PageReader only; it records the pages read.
type bareReader struct {
	mu    sync.Mutex
	reads []int
}

func (r *bareReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	if ds != testLayout.Name {
		panic("ReadPage of dataset " + ds)
	}
	return r.read(page)
}

func (r *bareReader) read(page int) []byte {
	r.mu.Lock()
	r.reads = append(r.reads, page)
	r.mu.Unlock()
	return pageData(page)
}

// layoutReader adds LayoutReader; it records the pages Read and counts the
// reads by name.
type layoutReader struct {
	bareReader
	byName int
}

func (r *layoutReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	r.mu.Lock()
	r.byName++
	r.mu.Unlock()
	return r.bareReader.ReadPage(ctx, ds, page)
}

func (r *layoutReader) Read(ctx rt.Ctx, l *dataset.Layout, page int) []byte {
	if l != testLayout {
		panic("Read of layout " + l.Name)
	}
	return r.read(page)
}

// batchReader adds BatchReader with a fixed preference; it records the run
// of every ReadPages call.
type batchReader struct {
	bareReader
	prefer int
	runs   [][]int
}

func (r *batchReader) IOBatchPages() int { return r.prefer }

func (r *batchReader) ReadPages(ctx rt.Ctx, l *dataset.Layout, pages []int) [][]byte {
	r.mu.Lock()
	r.runs = append(r.runs, append([]int(nil), pages...))
	r.mu.Unlock()
	out := make([][]byte, len(pages))
	for i, p := range pages {
		out[i] = pageData(p)
	}
	return out
}

// testLayout is the 7x6-page layout the fake readers serve.
var testLayout = dataset.New("d", 70, 60, 1, 10)

// testPages is a page set whose rows do not start at column 0: 6 columns
// by 4 rows of testLayout, so a 5-page run crosses row ends.
func testPages() dataset.Pages {
	return testLayout.Pages(geom.R(15, 12, 62, 50))
}

// forEachPage reads pages the way the members of a batch group that share
// one reader do: each of workers callers makes one ForEachPage call over the
// whole set, side by side through FanOut. fn gets the caller and the index
// into pages.
func forEachPage(ctx rt.Ctx, pr PageReader, pages dataset.Pages, depth, workers int, fn func(caller, i int, data []byte)) {
	FanOut(ctx, workers, workers, func(caller int) {
		ForEachPage(ctx, pr, testLayout, pages, depth, func(i int, data []byte) { fn(caller, i, data) })
	})
}

// repeated returns n copies of list, one after the other.
func repeated[T any](list []T, n int) []T {
	var out []T
	for range n {
		out = append(out, list...)
	}
	return out
}

// chunked splits list into runs of at most n pages.
func chunked(list []int, n int) [][]int {
	var out [][]int
	for start := 0; start < len(list); start += n {
		out = append(out, list[start:min(start+n, len(list))])
	}
	return out
}

func TestForEachPage(t *testing.T) {
	pages := testPages()
	cases := []struct {
		name   string
		reader func() PageReader
		pages  dataset.Pages
		chunk  int // pages per ReadPages call; 0 = ReadPage only
	}{
		{"bare", func() PageReader { return &bareReader{} }, pages, 0},
		{"layout", func() PageReader { return &layoutReader{} }, pages, 0},
		{"batch prefers 0", func() PageReader { return &batchReader{} }, pages, 0},
		{"batch prefers 5", func() PageReader { return &batchReader{prefer: 5} }, pages, 5},
		{"empty", func() PageReader { return &batchReader{prefer: 5} }, dataset.Pages{}, 5},
	}
	for _, c := range cases {
		list := c.pages.Append(nil, 0, c.pages.Len())
		for _, workers := range []int{1, 4} {
			for _, syn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/syn=%v", c.name, workers, syn), func(t *testing.T) {
					pr := c.reader()
					got := make([][]int, workers) // each caller appends only to its own
					forEachPage(fakeCtx{syn: syn}, pr, c.pages, 0, workers, func(caller, i int, data []byte) {
						if !reflect.DeepEqual(data, pageData(list[i])) {
							t.Errorf("index %d delivered with the data of another page", i)
						}
						got[caller] = append(got[caller], i)
					})

					// Every call delivers every index once, in index order,
					// in the calling process.
					for caller, idx := range got {
						for n, i := range idx {
							if i != n {
								t.Errorf("caller %d: delivery %d is index %d", caller, n, i)
							}
						}
						if len(idx) != len(list) {
							t.Errorf("caller %d: %d deliveries, want %d", caller, len(idx), len(list))
						}
					}

					// The reader saw what was asked of it: single pages, or
					// runs of the preferred size with a short last one, once
					// per caller. Concurrent callers interleave; a serial
					// FanOut (one caller, or the synthetic runtime) does not.
					var singles []int
					var runs [][]int
					switch r := pr.(type) {
					case *bareReader:
						singles = r.reads
					case *layoutReader:
						singles = r.reads
						if r.byName != 0 {
							t.Errorf("%d reads by name from a LayoutReader", r.byName)
						}
					case *batchReader:
						singles, runs = r.reads, r.runs
					}
					inline := workers == 1 || syn
					if c.chunk == 0 {
						if len(runs) != 0 || len(singles) != workers*len(list) {
							t.Fatalf("%d ReadPage and %d ReadPages calls, want %d and 0", len(singles), len(runs), workers*len(list))
						}
						if !inline {
							sort.Ints(singles)
							want := repeated(list, workers)
							sort.Ints(want)
							if !reflect.DeepEqual(singles, want) {
								t.Errorf("reads %v, want each page %d times", singles, workers)
							}
						} else if !reflect.DeepEqual(singles, repeated(list, workers)) {
							t.Errorf("inline reads out of page order: %v", singles)
						}
						return
					}
					if len(singles) != 0 {
						t.Fatalf("%d ReadPage calls on a reader that prefers runs", len(singles))
					}
					want := repeated(chunked(list, c.chunk), workers)
					if !inline {
						// Claim order is free; the set of runs is not.
						order := func(rs [][]int) {
							sort.Slice(rs, func(a, b int) bool { return rs[a][0] < rs[b][0] })
						}
						order(runs)
						order(want)
					}
					if !reflect.DeepEqual(runs, want) {
						t.Errorf("runs %v, want %v", runs, want)
					}
				})
			}
		}
	}
}

// recordingPrefetcher counts hints per page and tells per-page hints from
// batched ones.
type recordingPrefetcher struct {
	batchReader
	hints     map[int]int
	hintRuns  int
	hintCalls int
}

func (r *recordingPrefetcher) StartFetch(l *dataset.Layout, page int) {
	r.mu.Lock()
	r.hints[page]++
	r.hintCalls++
	r.mu.Unlock()
}

func (r *recordingPrefetcher) StartFetchBatch(l *dataset.Layout, pages []int) {
	r.mu.Lock()
	for _, p := range pages {
		r.hints[p]++
	}
	r.hintRuns++
	r.mu.Unlock()
}

// Each page must be hinted at most once per call, regardless of depth (a
// sliding window would re-hint every page depth times, wasting the capped
// prefetch budget); a reader that prefers runs gets its hints as runs, one
// that does not gets them page by page.
func TestHintsEachPageOnce(t *testing.T) {
	pages := testPages()
	for _, prefer := range []int{0, 4} {
		pr := &recordingPrefetcher{batchReader: batchReader{prefer: prefer}, hints: map[int]int{}}
		ForEachPage(fakeCtx{}, pr, testLayout, pages, 3, func(int, []byte) {})
		for p, n := range pr.hints {
			if n != 1 {
				t.Errorf("prefer=%d: page %d hinted %d times, want 1", prefer, p, n)
			}
		}
		// The page-by-page walk hints every page except the first.
		if prefer == 0 && len(pr.hints) != pages.Len()-1 {
			t.Errorf("hinted %d distinct pages, want %d", len(pr.hints), pages.Len()-1)
		}
		if prefer == 0 && pr.hintRuns != 0 {
			t.Errorf("%d batched hints to a reader that reads page by page", pr.hintRuns)
		}
		if prefer > 0 && (pr.hintCalls != 0 || pr.hintRuns == 0) {
			t.Errorf("prefer=%d: %d per-page and %d batched hints, want only batched", prefer, pr.hintCalls, pr.hintRuns)
		}
	}
}

// Prefetching stays off without a Prefetcher-capable reader or with depth 0.
func TestHinterDisabled(t *testing.T) {
	pages := testPages()
	if h := newHinter(&bareReader{}, false, 3, testLayout, pages); h != nil {
		t.Fatal("hinter should be nil for non-prefetching reader")
	}
	pr := &recordingPrefetcher{hints: map[int]int{}}
	if h := newHinter(pr, false, 0, testLayout, pages); h != nil {
		t.Fatal("hinter should be nil at depth 0")
	}
	var h *hinter
	h.at(0, nil) // nil hinter must be a safe no-op
}

// nullReader serves nothing and records nothing, so the loop's own
// allocations are all that AllocsPerRun sees.
type nullReader struct{}

func (nullReader) ReadPage(rt.Ctx, string, int) []byte { return nil }

// The loop over a bare reader allocates nothing, per call or per page: its
// state and the caller's closure stay on the caller's stack.
func TestInlineLoopAllocatesNothingPerPage(t *testing.T) {
	l := dataset.New("d", 16, 16, 1, 1)
	var ctx rt.Ctx = fakeCtx{}
	var pr PageReader = nullReader{}
	allocs := func(pages dataset.Pages) float64 {
		return testing.AllocsPerRun(100, func() {
			var n int
			ForEachPage(ctx, pr, l, pages, 0, func(i int, _ []byte) { n += i })
		})
	}
	one, many := allocs(l.Pages(geom.R(3, 4, 4, 5))), allocs(l.Pages(l.Bounds()))
	if many != one {
		t.Fatalf("%v allocations for 256 pages, %v for 1", many, one)
	}
	if one != 0 {
		t.Fatalf("%v allocations for one page, want 0", one)
	}
}
