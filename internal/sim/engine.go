// Package sim is a deterministic discrete-event execution kernel for
// cooperative processes. It stands in for the paper's 24-processor Solaris
// SMP and its disk farm: middleware code runs as processes over a virtual
// clock, and contended hardware (CPUs, disks) is modelled with Resources.
// Exactly one process executes at a time and events at equal timestamps fire
// in creation order, so every simulation run is bit-for-bit reproducible
// regardless of the host machine.
//
// A process is an ordinary function running as a coroutine of the engine's
// dispatch loop. It may only interact with the engine through its *Proc
// handle (Sleep, resource acquisition, condition waits); between those calls
// it runs ordinary Go code. Because the engine resumes one process at a time,
// process code needs no locking against other processes — but it must never
// block on anything except its *Proc, and must not hold a semantic invariant
// "locked" across a call that parks (Sleep, Acquire, Wait).
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Engine is a discrete-event simulation driver. Create one with New, add
// processes with Go, then call Run.
//
// Run's goroutine runs the one dispatch loop: it resumes the process whose
// event fired, and that process runs until it parks or returns. A process
// that parks pops the next event itself. If the event is its own it simply
// goes on running; otherwise it names that event's process in cur and yields
// back to the loop, which resumes it. So a handoff costs two coroutine
// switches and a self-resume none. The loop ends when no event is left, when
// the next one lies past the RunUntil bound, or when a process panicked.
type Engine struct {
	now    time.Duration
	seq    int64
	events eventHeap
	// bound is the current RunUntil limit; negative means none (Run).
	bound time.Duration
	// cur is the process the dispatch loop resumes next, set by the process
	// that yielded to it; nil ends the loop.
	cur *Proc
	// live holds the processes started and not yet finished.
	live   map[*Proc]struct{}
	panicv any
}

// New returns an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{live: map[*Proc]struct{}{}}
}

// Now returns the current virtual time. It may be called from process code
// or between Run calls (never concurrently with a running engine from an
// outside goroutine).
func (e *Engine) Now() time.Duration { return e.now }

// Proc is a process handle. All engine interaction from process code goes
// through the Proc passed to the process function. The process holds the
// engine from the moment the dispatch loop resumes it until it parks or
// returns.
type Proc struct {
	e    *Engine
	name string
	// resume runs the process from where it last yielded (or from its
	// start) until it yields again or ends; only the dispatch loop calls it.
	// yield gives control back to the loop; only the process calls it. Each
	// park that hands control away is matched by exactly one resume.
	// startProc sets both to the coroutine's own functions, with no wrapper
	// on the switch path; their results mean nothing here.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	done   bool
	// waitKind and waitOn name what a process parked on a gate, condition
	// or resource waits for ("gate" and the gate); empty otherwise. They
	// are for deadlock diagnostics, which alone format waitOn.
	waitKind string
	waitOn   fmt.Stringer
}

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Go registers a new process. The process starts when the engine next
// reaches the current virtual time (immediately at the start of Run for
// processes added before Run). fn runs as a coroutine under engine control;
// when fn returns the process ends.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name}
	e.live[p] = struct{}{}
	startProc(p, func() { p.top(fn) })
	e.schedule(e.now, p)
	return p
}

// top is the outermost frame of a process. A process whose fn returned
// passes the engine on like a parking one. After a panic it goes straight
// back to the loop, and Run re-panics. After a runtime.Goexit (t.FailNow in
// a process) it pops nothing: the Goexit ends Run's goroutine too, with the
// clock still at the exiting process's event.
func (p *Proc) top(fn func(*Proc)) {
	returned := false
	defer func() {
		e := p.e
		if r := recover(); r != nil {
			e.panicv = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
		}
		p.done = true
		delete(e.live, p)
		if returned {
			e.cur = e.next()
		}
	}()
	fn(p)
	returned = true
}

// Sleep advances the process by d of virtual time. Other processes run in
// the meantime. Sleep(0) yields to any other process scheduled at the same
// instant.
//
// A wakeup strictly earlier than every queued event, and within the
// RunUntil bound, is the event park would pop next: Sleep then advances the
// clock itself, consuming the sequence number schedule would have, and
// neither pushes nor pops. An event queued at the same time went first and
// still does, since the fast path takes only a strictly earlier wakeup.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %q", d, p.name))
	}
	e := p.e
	at := e.now + d
	if (len(e.events) == 0 || at < e.events[0].at) && (e.bound < 0 || at <= e.bound) {
		e.seq++
		e.now = at
		return
	}
	e.schedule(at, p)
	p.park()
}

// Yield lets other processes scheduled at the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// park gives up the engine until the process is resumed. The caller must
// already have arranged a future resume (a scheduled event, or membership in
// some waiter list). park dispatches the next event itself: if it is the
// process's own, park returns at once; otherwise it names that event's
// process (nil for none) as the loop's next and yields to the loop.
func (p *Proc) park() {
	next := p.e.next()
	if next == p {
		return
	}
	p.e.cur = next
	p.yield(struct{}{})
}

// parkOn parks on a gate, condition or resource, recording what for deadlock
// diagnostics. The waiter list owner is responsible for scheduling the
// resume.
func (p *Proc) parkOn(kind string, on fmt.Stringer) {
	p.waitKind, p.waitOn = kind, on
	p.park()
	p.waitKind, p.waitOn = "", nil
}

// next pops the next event within the bound, skipping any for finished
// processes, advances the clock to it and returns its process. It returns
// nil when the dispatch loop should end: no event is left, or the next one
// lies past the bound.
func (e *Engine) next() *Proc {
	for len(e.events) > 0 {
		if e.bound >= 0 && e.events[0].at > e.bound {
			return nil
		}
		ev := e.events.pop()
		if ev.p.done {
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards (%v -> %v)", e.now, ev.at))
		}
		e.now = ev.at
		return ev.p
	}
	return nil
}

// schedule queues a wakeup for p at time at.
func (e *Engine) schedule(at time.Duration, p *Proc) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p})
}

// Run executes events until none remain, then returns. If processes are
// still alive but parked with no pending events, Run returns a
// DeadlockError naming them. Run re-panics any panic raised inside a
// process, and a runtime.Goexit inside a process ends Run's goroutine.
func (e *Engine) Run() error {
	return e.runUntil(-1)
}

// RunUntil executes events with timestamps <= t and returns. The virtual
// clock is left at min(t, time of last event). Processes parked at return
// stay parked; a subsequent Run or RunUntil continues the simulation.
func (e *Engine) RunUntil(t time.Duration) error {
	if t < 0 {
		return fmt.Errorf("sim: RunUntil with negative time %v", t)
	}
	return e.runUntil(t)
}

// runUntil is the dispatch loop: it resumes each process that the previous
// one named in cur, until one names none or a process panicked.
func (e *Engine) runUntil(t time.Duration) error {
	e.bound = t
	for p := e.next(); p != nil && e.panicv == nil; p = e.cur {
		e.cur = nil
		p.resume()
	}
	if e.panicv != nil {
		panic(e.panicv)
	}
	if len(e.events) > 0 { // the next event lies past the bound
		e.now = t
		return nil
	}
	if t < 0 && len(e.live) > 0 {
		return e.deadlock()
	}
	return nil
}

func (e *Engine) deadlock() error {
	var waits []string
	for p := range e.live {
		if p.waitKind != "" {
			waits = append(waits, fmt.Sprintf("%s: %s %s", p.name, p.waitKind, p.waitOn))
		}
	}
	sort.Strings(waits)
	return &DeadlockError{Time: e.now, Parked: waits, Live: len(e.live)}
}

// DeadlockError reports that the simulation stalled: live processes remain
// but no events are pending.
type DeadlockError struct {
	Time   time.Duration
	Parked []string
	Live   int
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d live processes, parked: %v", d.Time, d.Live, d.Parked)
}

// event is a scheduled process wakeup.
type event struct {
	at  time.Duration
	seq int64 // tie-break: FIFO among equal timestamps
	p   *Proc
}

// before orders events by (at, seq), a total order: any correct heap pops
// the same sequence.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under before.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the *Proc reference
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r].before(s[c]) {
				c = r
			}
			if !s[c].before(last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}
