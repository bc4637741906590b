//go:build go1.23

package sim

import "iter"

// startProc makes body the coroutine behind p: p.resume runs it until it
// calls p.yield or returns. iter.Pull switches between the dispatch loop and
// the process directly, without a trip through the scheduler, and its race
// annotations order each switch after everything the previous holder did. A
// runtime.Goexit that ends body is raised again in the caller of p.resume.
func startProc(p *Proc, body func()) {
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body()
	})
}
