package query

import (
	"mqsched/internal/dataset"
	"mqsched/internal/rt"
)

// ForEachPage is the one loop that turns a page set into raw reads: it reads
// page pages.At(i) of l through pr and calls fn(i, data) exactly once per
// index, in index order, in the calling process. The application supplies
// the per-page function; how pages are fetched, batched and hinted is
// decided here.
//
// The reader is asked once whether it prefers runs: a BatchReader with
// IOBatchPages() > 0 is read in chunks of that many pages through ReadPages
// (an elevator-scheduled farm then sees whole runs at once); any other
// reader is read one page at a time, the paper's loop, through Read when it
// is a LayoutReader and ReadPage by l's name otherwise. That loop walks the
// set a run of consecutive pages at a time, so it divides once per page row,
// not per page. With depth > 0 and a Prefetcher-capable reader, the next
// depth pages are hinted before each blocking read.
//
// The loop never starts a goroutine, so neither fn nor the loop's own state
// leaves the caller's stack: the page-at-a-time loop allocates nothing. A
// query is one such call in one process, as in the paper's query threads.
func ForEachPage(ctx rt.Ctx, pr PageReader, l *dataset.Layout, pages dataset.Pages, depth int, fn func(i int, data []byte)) {
	n := pages.Len()
	br, chunk := runPages(pr)
	h := newHinter(pr, br != nil, depth, l, pages)
	if br == nil {
		lr, _ := pr.(LayoutReader)
		i := 0
		for k, runs := 0, pages.Runs(); k < runs; k++ {
			run := pages.Run(k)
			first := run.At(0)
			for p := first; p < first+run.Len(); p, i = p+1, i+1 {
				h.at(i, nil) // hint the next window before blocking on this page
				if lr != nil {
					fn(i, lr.Read(ctx, l, p))
				} else {
					fn(i, pr.ReadPage(ctx, l.Name, p))
				}
			}
		}
		return
	}
	// ReadPages and StartFetchBatch take index lists; this call owns the one
	// buffer both are built in (neither keeps it).
	buf := make([]int, 0, max(chunk, depth))
	for start := 0; start < n; start += chunk {
		end := min(start+chunk, n)
		h.at(end-1, buf)
		for j, data := range br.ReadPages(ctx, l, pages.Append(buf[:0], start, end)) {
			fn(start+j, data)
		}
	}
}

// runPages returns the reader as a BatchReader and the pages it takes per
// ReadPages call when it prefers runs (IOBatchPages() > 0), else nil and 1:
// the reader is read page by page.
func runPages(pr PageReader) (BatchReader, int) {
	if br, ok := pr.(BatchReader); ok {
		if n := br.IOBatchPages(); n > 0 {
			return br, n
		}
	}
	return nil, 1
}

// hinter issues chunk read-ahead hints at most once per page. A sliding
// window that re-hinted the next depth pages on every iteration would hint
// each page up to depth times — and since the page space manager caps
// concurrent background fetches and drops hints beyond the cap, the
// duplicates would crowd out real read-ahead. A high-water mark makes every
// StartFetch unique.
type hinter struct {
	pf    Prefetcher
	bpf   BatchPrefetcher // batch the run when the reader prefers batches
	l     *dataset.Layout
	pages dataset.Pages
	depth int
	hw    int // next page index not yet hinted
}

// newHinter returns nil (a no-op hinter) when prefetching is off or the
// reader cannot prefetch. When the reader both prefers batched reads and
// accepts batched hints, each uncovered run is hinted with one
// StartFetchBatch call (a single background read the disk elevator can
// merge) instead of per-page calls; the high-water dedup is identical
// either way.
func newHinter(pr PageReader, batched bool, depth int, l *dataset.Layout, pages dataset.Pages) *hinter {
	if depth <= 0 {
		return nil
	}
	pf, ok := pr.(Prefetcher)
	if !ok {
		return nil
	}
	h := &hinter{pf: pf, l: l, pages: pages, depth: depth}
	if batched {
		h.bpf, _ = pr.(BatchPrefetcher)
	}
	return h
}

// at hints the not-yet-hinted pages within the read-ahead window of page i,
// i.e. indices [max(hw, i+1), i+1+depth). A batched hint is built in buf,
// which must have room for depth pages.
func (h *hinter) at(i int, buf []int) {
	if h == nil {
		return
	}
	start, end := max(h.hw, i+1), min(i+1+h.depth, h.pages.Len())
	if start >= end {
		return
	}
	h.hw = end
	if h.bpf != nil {
		h.bpf.StartFetchBatch(h.l, h.pages.Append(buf[:0], start, end))
		return
	}
	for j := start; j < end; j++ {
		h.pf.StartFetch(h.l, h.pages.At(j))
	}
}
