package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFanOut pins the helper's contract: every index exactly once, and —
// with one worker, one item, or a synthetic ctx — inline: in index order, on
// the caller's goroutine.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 2, 37} {
		for _, workers := range []int{-1, 0, 1, 4, 64} {
			for _, syn := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/syn=%v", n, workers, syn), func(t *testing.T) {
					var mu sync.Mutex
					var got []int
					FanOut(fakeCtx{syn: syn}, workers, n, func(i int) {
						mu.Lock()
						got = append(got, i)
						mu.Unlock()
					})
					if len(got) != n {
						t.Fatalf("%d calls for %d items", len(got), n)
					}
					inline := workers <= 1 || n <= 1 || syn
					seen := make([]int, n)
					for k, i := range got {
						seen[i]++
						if inline && i != k {
							t.Errorf("inline call %d is index %d", k, i)
						}
					}
					for i, c := range seen {
						if c != 1 {
							t.Errorf("index %d called %d times", i, c)
						}
					}
				})
			}
		}
	}
}

// TestFanOutRunsConcurrently: with more than one worker on a real ctx the
// calls overlap — four items that each wait for all four to have started
// would deadlock on an inline loop — and FanOut returns only after the last.
func TestFanOutRunsConcurrently(t *testing.T) {
	var started sync.WaitGroup
	started.Add(4)
	var done atomic.Int64
	FanOut(fakeCtx{}, 4, 4, func(int) {
		started.Done()
		started.Wait()
		done.Add(1)
	})
	if done.Load() != 4 {
		t.Fatalf("FanOut returned with %d of 4 calls finished", done.Load())
	}
}
