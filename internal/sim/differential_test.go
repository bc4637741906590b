package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestEngineMatchesReference runs random programs of 2–6 processes on the
// engine and on refEngine, a scheduler kept here that pushes every wakeup
// on a heap and pops it, and compares what each process saw after every
// operation (its index, the operation and the clock), the clock after each
// RunUntil step and after Run, the deadlock verdict, and every resource's
// Utilization bits. The programs sleep for zero or a few equal lengths, so
// wakeups tie with queued events, yield, take and give back resources, wait
// on and signal conditions, and wait on and open gates. The steps cut the
// run at bounds that wakeups fall on, before and past.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 2000; trial++ {
		prog := randomProgram(rng)
		steps := []time.Duration{}
		for at := time.Duration(0); len(steps) < 1+rng.Intn(4); {
			at += time.Duration(rng.Intn(4)) * time.Millisecond
			steps = append(steps, at)
		}
		got := runEngine(prog, steps)
		want := runReference(prog, steps)
		if !slices.Equal(got.wakes, want.wakes) {
			i := 0
			for i < len(got.wakes) && i < len(want.wakes) && got.wakes[i] == want.wakes[i] {
				i++
			}
			t.Fatalf("trial %d (steps %v): wake %d is %v, reference %v\nprogram %v",
				trial, steps, i, at(got.wakes, i), at(want.wakes, i), prog)
		}
		if !slices.Equal(got.clocks, want.clocks) || got.deadlock != want.deadlock {
			t.Fatalf("trial %d (steps %v): clocks %v deadlock %v, reference %v %v\nprogram %v",
				trial, steps, got.clocks, got.deadlock, want.clocks, want.deadlock, prog)
		}
		if !slices.Equal(got.util, want.util) {
			t.Fatalf("trial %d: utilization bits %x, reference %x\nprogram %v", trial, got.util, want.util, prog)
		}
	}
}

func at(ws []wake, i int) any {
	if i < len(ws) {
		return ws[i]
	}
	return "none"
}

// opKind is one step of a random program.
type opKind int

const (
	opSleep   opKind = iota // Sleep(d); d == 0 is Yield
	opAcquire               // Resource.Acquire
	opRelease               // Resource.Release of a unit the process holds
	opWait                  // Cond.Wait
	opSignal                // Cond.Signal
	opGate                  // Gate.Wait
	opOpen                  // Gate.Open
)

type op struct {
	kind opKind
	d    time.Duration // opSleep
	obj  int           // the resource, condition or gate
}

func (o op) String() string {
	return fmt.Sprintf("%s%d/%v", []string{"sleep", "acq", "rel", "wait", "sig", "gate", "open"}[o.kind], o.obj, o.d)
}

const (
	refResources = 2
	refConds     = 2
	refGates     = 2
)

// randomProgram builds 2–6 process programs. A process releases every
// resource unit it took before it ends, so a resource is never released
// idle; waits may go unanswered, which both schedulers report as a
// deadlock.
func randomProgram(rng *rand.Rand) [][]op {
	prog := make([][]op, 2+rng.Intn(5))
	for i := range prog {
		var held []int
		for n := rng.Intn(12); n > 0; n-- {
			var o op
			switch r := rng.Intn(20); {
			case r < 8:
				o = op{kind: opSleep, d: time.Duration(rng.Intn(4)) * time.Millisecond}
			case r < 11:
				o = op{kind: opAcquire, obj: rng.Intn(refResources)}
				held = append(held, o.obj)
			case r < 13 && len(held) > 0:
				j := rng.Intn(len(held))
				o = op{kind: opRelease, obj: held[j]}
				held = slices.Delete(held, j, j+1)
			case r < 14:
				o = op{kind: opWait, obj: rng.Intn(refConds)}
			case r < 17:
				o = op{kind: opSignal, obj: rng.Intn(refConds)}
			case r < 18:
				o = op{kind: opGate, obj: rng.Intn(refGates)}
			default:
				o = op{kind: opOpen, obj: rng.Intn(refGates)}
			}
			prog[i] = append(prog[i], o)
		}
		for _, r := range held {
			prog[i] = append(prog[i], op{kind: opRelease, obj: r})
		}
	}
	return prog
}

// wake is what a process saw after finishing its step-th operation.
type wake struct {
	proc, step int
	now        time.Duration
}

type outcome struct {
	wakes    []wake
	clocks   []time.Duration // after each RunUntil step, then after Run
	deadlock bool
	util     []uint64 // math.Float64bits of each resource's Utilization
}

// refCapacity is resource r's capacity in both schedulers.
func refCapacity(r int) int { return 1 + r }

func runEngine(prog [][]op, steps []time.Duration) outcome {
	e := New()
	var res []*Resource
	var conds []*Cond
	var gates []*Gate
	for i := 0; i < refResources; i++ {
		res = append(res, e.NewResource(fmt.Sprint("r", i), refCapacity(i)))
	}
	for i := 0; i < refConds; i++ {
		conds = append(conds, e.NewCond(fmt.Sprint("c", i)))
	}
	for i := 0; i < refGates; i++ {
		gates = append(gates, e.NewGate(fmt.Sprint("g", i)))
	}
	var out outcome
	for i, ops := range prog {
		e.Go(fmt.Sprint("p", i), func(p *Proc) {
			for s, o := range ops {
				switch o.kind {
				case opSleep:
					p.Sleep(o.d)
				case opAcquire:
					res[o.obj].Acquire(p)
				case opRelease:
					res[o.obj].Release()
				case opWait:
					conds[o.obj].Wait(p)
				case opSignal:
					conds[o.obj].Signal()
				case opGate:
					gates[o.obj].Wait(p)
				case opOpen:
					gates[o.obj].Open()
				}
				out.wakes = append(out.wakes, wake{i, s, p.Now()})
			}
		})
	}
	for _, s := range steps {
		if err := e.RunUntil(s); err != nil {
			panic(err)
		}
		out.clocks = append(out.clocks, e.Now())
	}
	var dl *DeadlockError
	if err := e.Run(); errors.As(err, &dl) {
		out.deadlock = true
	} else if err != nil {
		panic(err)
	}
	out.clocks = append(out.clocks, e.Now())
	for _, r := range res {
		out.util = append(out.util, math.Float64bits(r.Utilization()))
	}
	return out
}

// refEngine is the reference: each process is a program counter over its
// operations, every wakeup is pushed on a heap ordered by (time, sequence)
// and popped from it, and resources, conditions and gates follow the
// engine's documented rules (FIFO waiters, a released unit handed to the
// longest waiter, an opened gate waking every waiter at the current time).
type refEngine struct {
	prog   [][]op
	pc     []int
	done   []bool
	now    time.Duration
	seq    int64
	events []refEvent // kept sorted; pop takes the first

	inUse     []int
	resWait   [][]int
	busy      []timeIntegral
	queue     []timeIntegral
	condWait  [][]int
	opened    []bool
	gateWait  [][]int
	wakes     []wake
	liveCount int
}

type refEvent struct {
	at   time.Duration
	seq  int64
	proc int
}

func (r *refEngine) schedule(at time.Duration, proc int) {
	r.seq++
	ev := refEvent{at, r.seq, proc}
	i, _ := slices.BinarySearchFunc(r.events, ev, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq - b.seq)
	})
	r.events = slices.Insert(r.events, i, ev)
}

func (r *refEngine) account(res int) {
	r.busy[res].extend(r.now, float64(r.inUse[res]))
	r.queue[res].extend(r.now, float64(len(r.resWait[res])))
}

// run resumes process proc and runs its operations until one parks it or
// it ends.
func (r *refEngine) run(proc int) {
	ops := r.prog[proc]
	for r.pc[proc] < len(ops) {
		o := ops[r.pc[proc]]
		parked := false
		switch o.kind {
		case opSleep:
			r.schedule(r.now+o.d, proc)
			parked = true
		case opAcquire:
			r.account(o.obj)
			if r.inUse[o.obj] < refCapacity(o.obj) && len(r.resWait[o.obj]) == 0 {
				r.inUse[o.obj]++
			} else {
				r.resWait[o.obj] = append(r.resWait[o.obj], proc)
				parked = true
			}
		case opRelease:
			r.account(o.obj)
			if w := r.resWait[o.obj]; len(w) > 0 {
				r.resWait[o.obj] = w[1:]
				r.schedule(r.now, w[0])
			} else {
				r.inUse[o.obj]--
			}
		case opWait:
			r.condWait[o.obj] = append(r.condWait[o.obj], proc)
			parked = true
		case opSignal:
			if w := r.condWait[o.obj]; len(w) > 0 {
				r.condWait[o.obj] = w[1:]
				r.schedule(r.now, w[0])
			}
		case opGate:
			if !r.opened[o.obj] {
				r.gateWait[o.obj] = append(r.gateWait[o.obj], proc)
				parked = true
			}
		case opOpen:
			if !r.opened[o.obj] {
				r.opened[o.obj] = true
				for _, w := range r.gateWait[o.obj] {
					r.schedule(r.now, w)
				}
				r.gateWait[o.obj] = nil
			}
		}
		if parked {
			return // the wake is logged when the process is resumed
		}
		r.step(proc)
	}
}

// step logs the operation proc just finished and moves past it; the last
// one ends the process.
func (r *refEngine) step(proc int) {
	r.wakes = append(r.wakes, wake{proc, r.pc[proc], r.now})
	r.pc[proc]++
	if r.pc[proc] == len(r.prog[proc]) {
		r.done[proc] = true
		r.liveCount--
	}
}

// runUntil pops and runs events up to bound (none when negative), leaving
// the clock at the bound when events remain past it.
func (r *refEngine) runUntil(bound time.Duration) {
	for len(r.events) > 0 {
		if bound >= 0 && r.events[0].at > bound {
			break
		}
		ev := r.events[0]
		r.events = r.events[1:]
		if r.done[ev.proc] {
			continue
		}
		r.now = ev.at
		if r.pc[ev.proc] >= 0 {
			r.step(ev.proc) // the parking operation has returned
		} else if r.pc[ev.proc] = 0; len(r.prog[ev.proc]) == 0 { // the start event
			r.done[ev.proc] = true
			r.liveCount--
		}
		if !r.done[ev.proc] {
			r.run(ev.proc)
		}
	}
	if len(r.events) > 0 {
		r.now = bound
	}
}

func runReference(prog [][]op, steps []time.Duration) outcome {
	r := &refEngine{
		prog: prog, pc: make([]int, len(prog)), done: make([]bool, len(prog)),
		inUse: make([]int, refResources), resWait: make([][]int, refResources),
		busy: make([]timeIntegral, refResources), queue: make([]timeIntegral, refResources),
		condWait: make([][]int, refConds), opened: make([]bool, refGates), gateWait: make([][]int, refGates),
	}
	for i := range prog {
		r.pc[i] = -1 // not started
		r.liveCount++
		r.schedule(0, i)
	}
	var out outcome
	for _, s := range steps {
		r.runUntil(s)
		out.clocks = append(out.clocks, r.now)
	}
	r.runUntil(-1)
	out.clocks = append(out.clocks, r.now)
	out.deadlock = r.liveCount > 0
	out.wakes = r.wakes
	for i := range r.busy {
		r.account(i)
		u := 0.0
		if r.now != 0 {
			u = r.busy[i].total / (float64(r.now) * float64(refCapacity(i)))
		}
		out.util = append(out.util, math.Float64bits(u))
	}
	return out
}
