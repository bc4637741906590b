package rt

import (
	"sync"
	"time"

	"mqsched/internal/sim"
	"mqsched/internal/trace"
)

// SimRuntime runs middleware processes on the deterministic virtual-time
// kernel, with the machine's CPUs modelled as a contended resource. It is
// the substitute for the paper's shared-memory multiprocessor.
type SimRuntime struct {
	eng  *sim.Engine
	cpus *sim.Resource
}

// NewSim returns a simulated runtime over eng with ncpu processors.
func NewSim(eng *sim.Engine, ncpu int) *SimRuntime {
	return &SimRuntime{eng: eng, cpus: eng.NewResource("cpu", ncpu)}
}

// Engine exposes the underlying event engine (the caller drives it with
// Run).
func (r *SimRuntime) Engine() *sim.Engine { return r.eng }

// CPUUtilization returns the time-averaged fraction of busy processors.
func (r *SimRuntime) CPUUtilization() float64 { return r.cpus.Utilization() }

// Spawn implements Runtime.
func (r *SimRuntime) Spawn(name string, fn func(Ctx)) {
	r.eng.Go(name, func(p *sim.Proc) {
		fn(&simCtx{rt: r, p: p})
	})
}

// NewGate implements Runtime.
func (r *SimRuntime) NewGate(reason string) Gate {
	return &simGate{g: r.eng.NewGate(reason)}
}

// NewCond implements Runtime.
func (r *SimRuntime) NewCond(l sync.Locker, reason string) Cond {
	return &simCond{c: r.eng.NewCond(reason), l: l}
}

// NewStation implements Runtime.
func (r *SimRuntime) NewStation(name string, servers int) Station {
	return &simStation{res: r.eng.NewResource(name, servers)}
}

// Now implements Runtime.
func (r *SimRuntime) Now() time.Duration { return r.eng.Now() }

// Synthetic implements Runtime.
func (r *SimRuntime) Synthetic() bool { return true }

type simCtx struct {
	rt   *SimRuntime
	p    *sim.Proc
	span trace.SpanContext // see WithSpan
}

func (c *simCtx) Name() string          { return c.p.Name() }
func (c *simCtx) Now() time.Duration    { return c.p.Now() }
func (c *simCtx) Sleep(d time.Duration) { c.p.Sleep(d) }
func (c *simCtx) Synthetic() bool       { return true }
func (c *simCtx) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	c.rt.cpus.Acquire(c.p)
	c.p.Sleep(d)
	c.rt.cpus.Release()
}

type simGate struct{ g *sim.Gate }

func (g *simGate) Wait(ctx Ctx) { g.g.Wait(ctx.(*simCtx).p) }
func (g *simGate) Open()        { g.g.Open() }
func (g *simGate) Opened() bool { return g.g.Opened() }

// simCond releases the associated locker while parked. In the simulated
// runtime only one process runs at a time, so unlocking before the park and
// relocking after resume cannot lose a wakeup: the predicate re-check after
// Wait returns is performed under the lock as usual.
type simCond struct {
	c *sim.Cond
	l sync.Locker
}

func (c *simCond) Wait(ctx Ctx) {
	c.l.Unlock()
	c.c.Wait(ctx.(*simCtx).p)
	c.l.Lock()
}
func (c *simCond) Broadcast() { c.c.Broadcast() }
func (c *simCond) Signal()    { c.c.Signal() }

type simStation struct{ res *sim.Resource }

func (s *simStation) Serve(ctx Ctx, d time.Duration) {
	p := ctx.(*simCtx).p
	s.res.Acquire(p)
	if d > 0 {
		p.Sleep(d)
	}
	s.res.Release()
}

func (s *simStation) ServeWith(ctx Ctx, cost func() time.Duration) {
	s.res.UseWith(ctx.(*simCtx).p, cost)
}

func (s *simStation) Utilization() float64 { return s.res.Utilization() }
