package rt

import (
	"sync"
	"time"

	"mqsched/internal/dataset"
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
	// and Station.Finish. 0 means DefaultTimeScale. Use 1.0 for
	// true-to-model pacing.
	TimeScale float64
}

// DefaultTimeScale is the real runtime's time compression when
// RealOptions.TimeScale is zero: modelled milliseconds become wall-clock
// 20µs.
const DefaultTimeScale = 0.02

// NewReal returns a wall-clock runtime.
func NewReal(opts RealOptions) *RealRuntime {
	scale := opts.TimeScale
	if scale == 0 {
		scale = DefaultTimeScale
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
		fn(&realCtx{rt: r, name: name, hash: dataset.HashName(name)})
	}()
}

// NewGate implements Runtime.
func (r *RealRuntime) NewGate(reason any) Gate {
	return &realGate{ch: make(chan struct{})}
}

// NewCond implements Runtime.
func (r *RealRuntime) NewCond(l sync.Locker, reason string) Cond {
	return &realCond{c: sync.NewCond(l)}
}

// NewStation implements Runtime.
func (r *RealRuntime) NewStation(name string, servers int) Station {
	return &realStation{rt: r, sem: make(chan struct{}, servers), free: make([]time.Time, servers)}
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
	hash uint32            // see NameHash
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

// realStation serves its requests on wall-clock time. Each server's
// services are chained: a request completes d (scaled) after the later of
// its Finish and the end of the server's previous service. The server is
// freed as soon as that completion is booked, and the caller then sleeps
// until it. A host's timer overshoots short sleeps (by 0.3–1 ms on a 2-vCPU
// Linux VM, against 7–40 µs of disk service at TimeScale 0.002); a server
// held through the caller's sleep would serve at the timer's rate, not the
// model's, so it is freed first and the overshoot delays only the caller.
type realStation struct {
	rt   *RealRuntime
	sem  chan struct{}
	mu   sync.Mutex
	free []time.Time // per server, when its booked services end
}

func (s *realStation) Seize(ctx Ctx) { s.sem <- struct{}{} }

func (s *realStation) Finish(ctx Ctx, d time.Duration) {
	now := time.Now()
	s.mu.Lock()
	k := 0
	for i, t := range s.free {
		if t.Before(s.free[k]) {
			k = i
		}
	}
	due := s.free[k]
	if due.Before(now) {
		due = now
	}
	due = due.Add(s.rt.scaled(d))
	s.free[k] = due
	s.mu.Unlock()
	<-s.sem
	time.Sleep(time.Until(due))
}

func (s *realStation) Serve(ctx Ctx, d time.Duration) {
	s.Seize(ctx)
	s.Finish(ctx, d)
}

func (s *realStation) Utilization() float64 { return 0 }
