package query

import (
	"sync"
	"sync/atomic"

	"mqsched/internal/rt"
)

// FanOut is the one place the server spreads work over goroutines: it calls
// fn(i) exactly once for every i in [0, n) and returns when all calls have.
// Its one caller runs a batch group's members, which are separate queries; a
// query itself runs in one process.
//
// With workers <= 1, with at most one item, or on the synthetic runtime — whose
// virtual clock belongs to one process at a time, so the simulated server is
// always serial — the calls run inline in the calling process, in index
// order. Otherwise indices are claimed from one shared counter by
// min(workers, n) goroutines and fn runs concurrently.
func FanOut(ctx rt.Ctx, workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 || ctx.Synthetic() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
