package rt

import (
	"sync"
	"time"

	"mqsched/internal/trace"
)

// RealRuntime runs middleware processes as ordinary goroutines on wall-clock
// time. Modelled service times (disk positioning and transfer, synthetic
// compute bursts) are compressed by TimeScale so examples finish quickly
// while preserving relative costs. Data payloads are real: the Virtual
// Microscope actually clips, subsamples and averages pixels.
type RealRuntime struct {
	start time.Time
	scale float64
	wg    sync.WaitGroup
}

// RealOptions configures NewReal.
type RealOptions struct {
	// TimeScale multiplies every modelled duration passed to Sleep, Compute
	// and Station.Serve. 0 means the default of 0.02 (modelled milliseconds
	// become wall-clock 20µs). Use 1.0 for true-to-model pacing.
	TimeScale float64
}

// NewReal returns a wall-clock runtime.
func NewReal(opts RealOptions) *RealRuntime {
	scale := opts.TimeScale
	if scale == 0 {
		scale = 0.02
	}
	return &RealRuntime{start: time.Now(), scale: scale}
}

// Wait blocks until every process started with Spawn has returned.
func (r *RealRuntime) Wait() { r.wg.Wait() }

// Spawn implements Runtime.
func (r *RealRuntime) Spawn(name string, fn func(Ctx)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(&realCtx{rt: r, name: name})
	}()
}

// NewGate implements Runtime.
func (r *RealRuntime) NewGate(reason string) Gate {
	return &realGate{ch: make(chan struct{})}
}

// NewCond implements Runtime.
func (r *RealRuntime) NewCond(l sync.Locker, reason string) Cond {
	return &realCond{c: sync.NewCond(l)}
}

// NewStation implements Runtime.
func (r *RealRuntime) NewStation(name string, servers int) Station {
	return &realStation{rt: r, sem: make(chan struct{}, servers)}
}

// Now implements Runtime.
func (r *RealRuntime) Now() time.Duration { return time.Since(r.start) }

// Synthetic implements Runtime.
func (r *RealRuntime) Synthetic() bool { return false }

// scaled converts a modelled duration to wall-clock time.
func (r *RealRuntime) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * r.scale)
}

type realCtx struct {
	rt   *RealRuntime
	name string
	span trace.SpanContext // see WithSpan
}

func (c *realCtx) Name() string          { return c.name }
func (c *realCtx) Now() time.Duration    { return c.rt.Now() }
func (c *realCtx) Sleep(d time.Duration) { time.Sleep(c.rt.scaled(d)) }
func (c *realCtx) Synthetic() bool       { return false }

// Compute is a no-op on the real runtime: computation accounted for by
// Compute in synthetic mode is actually performed by application code here.
func (c *realCtx) Compute(d time.Duration) {}

type realGate struct {
	ch   chan struct{}
	once sync.Once
}

func (g *realGate) Wait(ctx Ctx) { <-g.ch }
func (g *realGate) Open()        { g.once.Do(func() { close(g.ch) }) }
func (g *realGate) Opened() bool {
	select {
	case <-g.ch:
		return true
	default:
		return false
	}
}

type realCond struct{ c *sync.Cond }

func (c *realCond) Wait(ctx Ctx) { c.c.Wait() }
func (c *realCond) Broadcast()   { c.c.Broadcast() }
func (c *realCond) Signal()      { c.c.Signal() }

type realStation struct {
	rt  *RealRuntime
	sem chan struct{}
}

func (s *realStation) Serve(ctx Ctx, d time.Duration) {
	s.sem <- struct{}{}
	time.Sleep(s.rt.scaled(d))
	<-s.sem
}

func (s *realStation) ServeWith(ctx Ctx, cost func() time.Duration) {
	s.sem <- struct{}{}
	time.Sleep(s.rt.scaled(cost()))
	<-s.sem
}

func (s *realStation) Utilization() float64 { return 0 }
