//go:build !go1.23

package sim

import "runtime"

// startProc is coro.go's contract for toolchains older than go1.23: body
// runs in its own goroutine, and resume and yield hand control across two
// unbuffered channels, whose sends are the happens-before edges. A
// runtime.Goexit that ends body is raised again in the caller of p.resume.
// This file goes when the module requires go1.23.
func startProc(p *Proc, body func()) {
	wake := make(chan struct{})
	back := make(chan bool) // true when body ended by runtime.Goexit
	go func() {
		goexit := true
		defer func() { back <- goexit }()
		<-wake
		body()
		goexit = false
	}()
	p.resume = func() (struct{}, bool) {
		wake <- struct{}{}
		if <-back {
			runtime.Goexit()
		}
		return struct{}{}, true
	}
	p.yield = func(struct{}) bool {
		back <- false
		<-wake
		return true
	}
}
