package query

import (
	"sync/atomic"

	"mqsched/internal/rt"
)

// ForEachPage is the one loop that turns a page list into raw reads: it
// reads pages[i] of ds through pr and calls fn(worker, i, data) exactly once
// per index. The application supplies the per-page function; how pages are
// fetched, batched, hinted and fanned out is decided here.
//
// The reader is asked once whether it prefers runs: a BatchReader with
// IOBatchPages() > 0 is read in chunks of that many pages through ReadPages
// (an elevator-scheduled farm then sees whole runs at once); any other
// reader is read one page at a time through ReadPage, the paper's loop. With
// depth > 0 and a Prefetcher-capable reader, the next depth pages are hinted
// before each blocking read.
//
// Chunks are handed to FanOut, which decides whether they run inline and in
// page order or concurrently; fn's worker argument is FanOut's.
func ForEachPage(ctx rt.Ctx, pr PageReader, ds string, pages []int, depth, workers int, fn func(worker, i int, data []byte)) {
	chunk := 1
	br, _ := pr.(BatchReader)
	if br != nil {
		if n := br.IOBatchPages(); n > 0 {
			chunk = n
		} else {
			br = nil
		}
	}
	h := newHinter(pr, br != nil, depth, ds, pages)
	FanOut(ctx, workers, (len(pages)+chunk-1)/chunk, func(worker, c int) {
		start := c * chunk
		end := min(start+chunk, len(pages))
		h.at(end - 1) // hint the next window before blocking on this one
		if br == nil {
			fn(worker, start, pr.ReadPage(ctx, ds, pages[start]))
			return
		}
		for j, data := range br.ReadPages(ctx, ds, pages[start:end]) {
			fn(worker, start+j, data)
		}
	})
}

// hinter issues chunk read-ahead hints at most once per page. A sliding
// window that re-hinted the next depth pages on every iteration would hint
// each page up to depth times — and since the page space manager caps
// concurrent background fetches and drops hints beyond the cap, the
// duplicates would crowd out real read-ahead. A monotonic high-water mark
// (atomic, so parallel workers share it) makes every StartFetch unique.
type hinter struct {
	pf    Prefetcher
	bpf   BatchPrefetcher // batch the run when the reader prefers batches
	ds    string
	pages []int
	depth int
	hw    atomic.Int64 // next page index not yet hinted
}

// newHinter returns nil (a no-op hinter) when prefetching is off or the
// reader cannot prefetch. When the reader both prefers batched reads and
// accepts batched hints, each uncovered run is hinted with one
// StartFetchBatch call (a single background read the disk elevator can
// merge) instead of per-page calls; the high-water dedup is identical
// either way.
func newHinter(pr PageReader, batched bool, depth int, ds string, pages []int) *hinter {
	if depth <= 0 {
		return nil
	}
	pf, ok := pr.(Prefetcher)
	if !ok {
		return nil
	}
	h := &hinter{pf: pf, ds: ds, pages: pages, depth: depth}
	if batched {
		h.bpf, _ = pr.(BatchPrefetcher)
	}
	return h
}

// at hints the not-yet-hinted pages within the read-ahead window of
// pages[i], i.e. indices [max(hw, i+1), i+1+depth).
func (h *hinter) at(i int) {
	if h == nil {
		return
	}
	end := int64(i + 1 + h.depth)
	if n := int64(len(h.pages)); end > n {
		end = n
	}
	for {
		cur := h.hw.Load()
		start := int64(i + 1)
		if cur > start {
			start = cur
		}
		if start >= end {
			return
		}
		if h.hw.CompareAndSwap(cur, end) {
			if h.bpf != nil {
				h.bpf.StartFetchBatch(h.ds, h.pages[start:end])
				return
			}
			for j := start; j < end; j++ {
				h.pf.StartFetch(h.ds, h.pages[j])
			}
			return
		}
	}
}
