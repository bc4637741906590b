package sim

import (
	"fmt"
	"time"
)

// Gate is a one-shot broadcast latch: processes Wait until some process (or
// setup code before Run) calls Open. Waiting on an already-open gate returns
// immediately. Gates model "query q_i blocks until q_j finishes and its
// results can be used" (paper §4, Farthest First discussion).
type Gate struct {
	e       *Engine
	opened  bool
	waiters []*Proc
	reason  any
}

// NewGate returns a closed gate. reason names it in deadlock diagnostics,
// formatted with %v only when one is reported.
func (e *Engine) NewGate(reason any) *Gate {
	return &Gate{e: e, reason: reason}
}

// String returns the gate's reason, as deadlock diagnostics print it.
func (g *Gate) String() string { return fmt.Sprint(g.reason) }

// Opened reports whether Open has been called.
func (g *Gate) Opened() bool { return g.opened }

// Wait parks the process until the gate opens.
func (g *Gate) Wait(p *Proc) {
	if g.opened {
		return
	}
	g.waiters = append(g.waiters, p)
	p.parkOn("gate", g)
}

// Open releases all current and future waiters. Opening an open gate is a
// no-op.
func (g *Gate) Open() {
	if g.opened {
		return
	}
	g.opened = true
	for _, p := range g.waiters {
		g.e.schedule(g.e.now, p)
	}
	g.waiters = nil
}

// Cond is a condition variable without an associated lock: because the
// engine runs one process at a time, the classic lost-wakeup race cannot
// occur as long as the predicate check and the Wait happen without an
// intervening park. Broadcast wakes every process currently waiting;
// processes re-check their predicate on wakeup as usual.
type Cond struct {
	e       *Engine
	waiters procQueue
	reason  string
}

// NewCond returns a condition variable. reason is used in deadlock
// diagnostics.
func (e *Engine) NewCond(reason string) *Cond {
	return &Cond{e: e, reason: reason}
}

// Wait parks the process until the next Broadcast or Signal.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.parkOn("cond", c)
}

// Broadcast wakes all current waiters.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.e.schedule(c.e.now, c.waiters.pop())
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.e.schedule(c.e.now, c.waiters.pop())
	}
}

// Waiters returns the number of processes parked on the condition.
func (c *Cond) Waiters() int { return c.waiters.len() }

// String returns the condition's reason, as deadlock diagnostics print it.
func (c *Cond) String() string { return c.reason }

// Resource is a counting resource with a FIFO wait queue, modelling a bank
// of identical servers (the SMP's processors, or one disk with capacity 1).
// Acquire blocks the process until a unit is free; Release frees a unit,
// handing it directly to the longest waiter if one exists.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  procQueue
	// accounting for utilization reports
	busyTime  timeIntegral
	queueTime timeIntegral
}

// NewResource returns a resource with the given capacity (> 0).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// Acquire obtains one unit of the resource, parking until available.
func (r *Resource) Acquire(p *Proc) {
	r.account()
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.inUse++
		return
	}
	r.waiters.push(p)
	p.parkOn("resource", r)
	// Wakeup from Release: the unit has already been transferred to us.
}

// String returns the resource's name, as deadlock diagnostics print it.
func (r *Resource) String() string { return r.name }

// TryAcquire obtains a unit if immediately available and reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If processes are waiting the unit passes to the
// longest waiter without becoming free.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	r.account()
	if r.waiters.len() > 0 {
		r.e.schedule(r.e.now, r.waiters.pop())
		// inUse stays: ownership transfers to the woken waiter.
		return
	}
	r.inUse--
}

// Use acquires the resource, sleeps for d, and releases: one FCFS service of
// duration d.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// UseWith acquires the resource, then calls cost to determine the service
// duration, sleeps for it, and releases. Unlike Use, the duration is decided
// at dispatch time — after the queueing delay, when the request actually
// reaches a server — so a batched or reordered service discipline layered on
// top of the resource can price the request against the state the server is
// in when it starts, not the state at enqueue. cost runs inside the process
// (no park), so on this single-threaded kernel it observes and may mutate
// shared dispatch state without extra locking.
func (r *Resource) UseWith(p *Proc, cost func() time.Duration) {
	r.Acquire(p)
	if d := cost(); d > 0 {
		p.Sleep(d)
	}
	r.Release()
}

// InUse returns the number of busy units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the configured number of units.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen returns the number of parked waiters.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// Utilization returns the time-averaged fraction of busy units since the
// start of the simulation, in [0, 1].
func (r *Resource) Utilization() float64 {
	r.account()
	if r.e.now == 0 {
		return 0
	}
	return r.busyTime.total / (float64(r.e.now) * float64(r.capacity))
}

// MeanQueueLen returns the time-averaged number of waiting processes.
func (r *Resource) MeanQueueLen() float64 {
	r.account()
	if r.e.now == 0 {
		return 0
	}
	return r.queueTime.total / float64(r.e.now)
}

// account folds the elapsed interval into the time integrals.
func (r *Resource) account() {
	now := r.e.now
	r.busyTime.extend(now, float64(r.inUse))
	r.queueTime.extend(now, float64(r.waiters.len()))
}

// timeIntegral accumulates ∫ level dt for utilization statistics.
type timeIntegral struct {
	last  time.Duration
	total float64
}

func (t *timeIntegral) extend(now time.Duration, level float64) {
	if now > t.last {
		t.total += float64(now-t.last) * level
		t.last = now
	}
}

// procQueue is a FIFO of parked processes that reuses its storage, so a
// steady stream of waits and wakeups allocates nothing.
type procQueue struct {
	ps   []*Proc
	head int // ps[head:] are queued
}

func (q *procQueue) len() int { return len(q.ps) - q.head }

func (q *procQueue) push(p *Proc) {
	if q.head > 0 && len(q.ps) == cap(q.ps) {
		n := copy(q.ps, q.ps[q.head:])
		clear(q.ps[n:])
		q.ps, q.head = q.ps[:n], 0
	}
	q.ps = append(q.ps, p)
}

func (q *procQueue) pop() *Proc {
	p := q.ps[q.head]
	q.ps[q.head] = nil
	q.head++
	if q.head == len(q.ps) {
		q.ps, q.head = q.ps[:0], 0
	}
	return p
}
