package query

import (
	"sync"
	"sync/atomic"

	"mqsched/internal/rt"
)

// FanOut is the one place a query's work is spread over goroutines: it calls
// fn(worker, i) exactly once for every i in [0, n) and returns when all calls
// have. Candidate projections, batch-group members, page pieces and row bands
// all go through it.
//
// With workers <= 1, with at most one item, or on the synthetic runtime — whose
// virtual clock belongs to one process at a time, so the simulated server is
// always serial — the calls run inline in the calling process, in index
// order, every one with worker 0. Otherwise indices are claimed from one
// shared counter by min(workers, n) goroutines and fn runs concurrently, its
// worker argument (always < workers) naming the goroutine so callers can keep
// one accumulator per worker without locking.
func FanOut(ctx rt.Ctx, workers, n int, fn func(worker, i int)) {
	workers = min(workers, n)
	if workers <= 1 || ctx.Synthetic() {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
