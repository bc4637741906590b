package query

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

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
	r.mu.Lock()
	r.reads = append(r.reads, page)
	r.mu.Unlock()
	return pageData(page)
}

// batchReader adds BatchReader with a fixed preference; it records the run
// of every ReadPages call.
type batchReader struct {
	bareReader
	prefer int
	runs   [][]int
}

func (r *batchReader) IOBatchPages() int { return r.prefer }

func (r *batchReader) ReadPages(ctx rt.Ctx, ds string, pages []int) [][]byte {
	r.mu.Lock()
	r.runs = append(r.runs, append([]int(nil), pages...))
	r.mu.Unlock()
	out := make([][]byte, len(pages))
	for i, p := range pages {
		out[i] = pageData(p)
	}
	return out
}

type delivery struct{ worker, i int }

func TestForEachPage(t *testing.T) {
	pages := make([]int, 23)
	for i := range pages {
		pages[i] = 1000 + 7*i
	}
	cases := []struct {
		name   string
		reader func() PageReader
		pages  []int
		chunk  int // pages per ReadPages call; 0 = ReadPage only
	}{
		{"bare", func() PageReader { return &bareReader{} }, pages, 0},
		{"batch prefers 0", func() PageReader { return &batchReader{} }, pages, 0},
		{"batch prefers 5", func() PageReader { return &batchReader{prefer: 5} }, pages, 5},
		{"empty", func() PageReader { return &batchReader{prefer: 5} }, nil, 5},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			for _, syn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/syn=%v", c.name, workers, syn), func(t *testing.T) {
					pr := c.reader()
					var mu sync.Mutex
					var got []delivery
					ForEachPage(fakeCtx{syn: syn}, pr, "d", c.pages, 0, workers, func(w, i int, data []byte) {
						if !reflect.DeepEqual(data, pageData(c.pages[i])) {
							t.Errorf("index %d delivered with the data of another page", i)
						}
						mu.Lock()
						got = append(got, delivery{w, i})
						mu.Unlock()
					})

					seen := make([]int, len(c.pages))
					inline := workers == 1 || syn
					for n, d := range got {
						seen[d.i]++
						if d.worker < 0 || d.worker >= workers {
							t.Errorf("worker index %d with %d workers", d.worker, workers)
						}
						if inline && (d.worker != 0 || d.i != n) {
							t.Errorf("inline delivery %d is {worker %d, index %d}", n, d.worker, d.i)
						}
					}
					for i, n := range seen {
						if n != 1 {
							t.Errorf("index %d delivered %d times", i, n)
						}
					}

					// The reader saw what was asked of it: single pages, or
					// runs of the preferred size with a short last one.
					var singles []int
					var runs [][]int
					switch r := pr.(type) {
					case *bareReader:
						singles = r.reads
					case *batchReader:
						singles, runs = r.reads, r.runs
					}
					if c.chunk == 0 {
						if len(runs) != 0 || len(singles) != len(c.pages) {
							t.Fatalf("%d ReadPage and %d ReadPages calls, want %d and 0", len(singles), len(runs), len(c.pages))
						}
						if inline && !reflect.DeepEqual(singles, c.pages) {
							t.Errorf("inline reads out of page order: %v", singles)
						}
						return
					}
					if len(singles) != 0 {
						t.Fatalf("%d ReadPage calls on a reader that prefers runs", len(singles))
					}
					var want [][]int
					for start := 0; start < len(c.pages); start += c.chunk {
						want = append(want, c.pages[start:min(start+c.chunk, len(c.pages))])
					}
					if !inline {
						// Claim order is free; the set of runs is not.
						byFirst := map[int][]int{}
						for _, r := range runs {
							byFirst[r[0]] = r
						}
						runs = runs[:0]
						for _, w := range want {
							runs = append(runs, byFirst[w[0]])
						}
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

func (r *recordingPrefetcher) StartFetch(ds string, page int) {
	r.mu.Lock()
	r.hints[page]++
	r.hintCalls++
	r.mu.Unlock()
}

func (r *recordingPrefetcher) StartFetchBatch(ds string, pages []int) {
	r.mu.Lock()
	for _, p := range pages {
		r.hints[p]++
	}
	r.hintRuns++
	r.mu.Unlock()
}

// Each page must be hinted at most once per call, regardless of depth or
// worker count (a sliding window would re-hint every page depth times,
// wasting the capped prefetch budget); a reader that prefers runs gets its
// hints as runs, one that does not gets them page by page.
func TestHintsEachPageOnce(t *testing.T) {
	pages := make([]int, 31)
	for i := range pages {
		pages[i] = 3 * i
	}
	for _, prefer := range []int{0, 4} {
		for _, workers := range []int{1, 4} {
			pr := &recordingPrefetcher{batchReader: batchReader{prefer: prefer}, hints: map[int]int{}}
			ForEachPage(fakeCtx{}, pr, "d", pages, 3, workers, func(int, int, []byte) {})
			for p, n := range pr.hints {
				if n != 1 {
					t.Errorf("prefer=%d workers=%d: page %d hinted %d times, want 1", prefer, workers, p, n)
				}
			}
			// The page-by-page inline walk hints every page except the first.
			if prefer == 0 && workers == 1 && len(pr.hints) != len(pages)-1 {
				t.Errorf("hinted %d distinct pages, want %d", len(pr.hints), len(pages)-1)
			}
			if prefer == 0 && pr.hintRuns != 0 {
				t.Errorf("%d batched hints to a reader that reads page by page", pr.hintRuns)
			}
			if prefer > 0 && (pr.hintCalls != 0 || pr.hintRuns == 0) {
				t.Errorf("prefer=%d: %d per-page and %d batched hints, want only batched", prefer, pr.hintCalls, pr.hintRuns)
			}
		}
	}
}

// Prefetching stays off without a Prefetcher-capable reader or with depth 0.
func TestHinterDisabled(t *testing.T) {
	pages := []int{1, 2, 3, 4}
	if h := newHinter(&bareReader{}, false, 3, "d", pages); h != nil {
		t.Fatal("hinter should be nil for non-prefetching reader")
	}
	pr := &recordingPrefetcher{hints: map[int]int{}}
	if h := newHinter(pr, false, 0, "d", pages); h != nil {
		t.Fatal("hinter should be nil at depth 0")
	}
	var h *hinter
	h.at(0) // nil hinter must be a safe no-op
}

func TestResolveParallelism(t *testing.T) {
	if got := ResolveParallelism(3); got != 3 {
		t.Errorf("ResolveParallelism(3) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got := ResolveParallelism(n); got != runtime.GOMAXPROCS(0) {
			t.Errorf("ResolveParallelism(%d) = %d, want GOMAXPROCS %d", n, got, runtime.GOMAXPROCS(0))
		}
	}
}

// nullReader serves nothing and records nothing, so the loop's own
// allocations are all that AllocsPerRun sees.
type nullReader struct{}

func (nullReader) ReadPage(rt.Ctx, string, int) []byte { return nil }

// The inline loop over a bare reader allocates per call, never per page.
func TestInlineLoopAllocatesNothingPerPage(t *testing.T) {
	var ctx rt.Ctx = fakeCtx{}
	var pr PageReader = nullReader{}
	var n int
	fn := func(_, i int, _ []byte) { n += i }
	allocs := func(pages []int) float64 {
		return testing.AllocsPerRun(100, func() { ForEachPage(ctx, pr, "d", pages, 0, 1, fn) })
	}
	one, many := allocs(make([]int, 1)), allocs(make([]int, 256))
	if many != one {
		t.Fatalf("%v allocations for 256 pages, %v for 1", many, one)
	}
}
