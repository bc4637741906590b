// Package rt abstracts the execution substrate under the query server. The
// middleware (query server, page space manager, data store, scheduler) is
// written once against these interfaces and runs on either:
//
//   - the simulated runtime (NewSim): deterministic virtual time over
//     internal/sim, with CPUs and disks as contended resources. This is the
//     stand-in for the paper's 24-processor SMP and is what every experiment
//     uses. It is "synthetic": data payloads are not materialized, only
//     byte counts and costs flow.
//
//   - the real runtime (NewReal): ordinary goroutines and wall-clock time,
//     with hardware service times compressed by a configurable scale. Used
//     by the runnable examples and by race-detector tests; pixel data is
//     actually produced.
//
// Rules for code running under a Ctx: never hold a sync.Mutex across a call
// that can block (Sleep, Compute, Station.Serve, Gate.Wait, Cond.Wait) — in
// the simulated runtime that parks the only runnable process while the lock
// is held and the next process to touch the lock would deadlock the
// simulation.
package rt

import (
	"sync"
	"time"

	"mqsched/internal/trace"
)

// Ctx is the per-process execution context. Every potentially time-consuming
// operation in the middleware takes a Ctx.
type Ctx interface {
	// Name identifies the process (for diagnostics).
	Name() string
	// Now returns the current time on this runtime's clock.
	Now() time.Duration
	// Sleep delays the process by d without occupying any modelled resource.
	Sleep(d time.Duration)
	// Compute occupies one CPU of the machine for d of modelled time. Use it
	// to account for computation that is not actually performed (synthetic
	// runtime); on the real runtime, where the computation actually runs on
	// the host CPU, it is a no-op.
	Compute(d time.Duration)
	// Synthetic reports whether data payloads are elided (simulated runtime).
	Synthetic() bool
}

// WithSpan returns a context that carries sp as the span its process is
// working under: a layer that opens a span passes it down by deriving the ctx
// it hands to the next layer, which reads it back with SpanOf. The result is a
// copy — ctx itself is shared (by the page workers of one query, by the
// members of a batch group) and is never written. When ctx already carries sp
// (tracing off: inert under inert) it is returned as is, and so is a Ctx from
// outside this package, which has no slot for a span.
func WithSpan(ctx Ctx, sp trace.SpanContext) Ctx {
	switch c := ctx.(type) {
	case *simCtx:
		if c.span != sp {
			d := *c
			d.span = sp
			return &d
		}
	case *realCtx:
		if c.span != sp {
			d := *c
			d.span = sp
			return &d
		}
	}
	return ctx
}

// SpanOf returns the span ctx was derived under: inert for a process's own
// ctx (background prefetches stay untraced) and for foreign Ctx values.
func SpanOf(ctx Ctx) trace.SpanContext {
	switch c := ctx.(type) {
	case *simCtx:
		return c.span
	case *realCtx:
		return c.span
	}
	return trace.SpanContext{}
}

// Gate is a one-shot completion latch: Wait blocks until Open. It is how a
// query blocks on a result that "is still being computed" (paper §4) and how
// the page space manager deduplicates in-flight I/O.
type Gate interface {
	Wait(ctx Ctx)
	Open()
	Opened() bool
}

// Cond is a condition variable bound to a sync.Locker. Wait must be called
// with the locker held; it releases the locker while parked and reacquires
// it before returning. Broadcast and Signal may be called with or without
// the locker held.
type Cond interface {
	Wait(ctx Ctx)
	Broadcast()
	Signal()
}

// Station is a bank of identical FCFS servers with a wait queue — a disk, or
// any other service center. Serve enqueues the process and occupies one
// server for d.
type Station interface {
	Serve(ctx Ctx, d time.Duration)
	// ServeWith enqueues the process and, once a server is granted, calls
	// cost to determine the service duration, then occupies the server for
	// it. Because cost runs at dispatch time — after the queueing delay —
	// service disciplines that depend on the server's state when the request
	// reaches the head of the queue (positioning costs, batching decisions)
	// are priced against the actual service order, not the arrival order.
	// cost must not block.
	ServeWith(ctx Ctx, cost func() time.Duration)
	// Utilization returns the time-averaged fraction of busy servers, in
	// [0, 1], where supported (simulated runtime); otherwise 0.
	Utilization() float64
}

// Runtime creates processes and synchronization objects over one substrate.
type Runtime interface {
	// Spawn starts a new process running fn.
	Spawn(name string, fn func(Ctx))
	// NewGate returns a closed gate; reason appears in deadlock diagnostics.
	NewGate(reason string) Gate
	// NewCond returns a condition variable bound to l.
	NewCond(l sync.Locker, reason string) Cond
	// NewStation returns a service center with the given number of servers.
	NewStation(name string, servers int) Station
	// Now returns the current time on this runtime's clock.
	Now() time.Duration
	// Synthetic reports whether data payloads are elided.
	Synthetic() bool
}
