package rt

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mqsched/internal/sim"
	"mqsched/internal/trace"
)

func TestSimRuntimeComputeContention(t *testing.T) {
	eng := sim.New()
	r := NewSim(eng, 2)
	done := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		i := i
		r.Spawn(fmt.Sprintf("w%d", i), func(ctx Ctx) {
			ctx.Compute(10 * time.Millisecond)
			done[i] = ctx.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 bursts on 2 CPUs: two waves.
	if eng.Now() != 20*time.Millisecond {
		t.Fatalf("makespan %v, want 20ms", eng.Now())
	}
	if r.CPUUtilization() < 0.99 {
		t.Errorf("CPU utilization %v, want ~1", r.CPUUtilization())
	}
	if !r.Synthetic() {
		t.Error("sim runtime must be synthetic")
	}
}

func TestSimRuntimeComputeZero(t *testing.T) {
	eng := sim.New()
	r := NewSim(eng, 1)
	r.Spawn("w", func(ctx Ctx) {
		ctx.Compute(0) // must not park or consume CPU
		ctx.Compute(-time.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 0 {
		t.Fatalf("time advanced to %v", eng.Now())
	}
}

func TestSimGateAndCond(t *testing.T) {
	eng := sim.New()
	r := NewSim(eng, 1)
	g := r.NewGate("res")
	var mu sync.Mutex
	c := r.NewCond(&mu, "queue")
	ready := false
	var log []string

	r.Spawn("consumer", func(ctx Ctx) {
		mu.Lock()
		for !ready {
			c.Wait(ctx)
		}
		mu.Unlock()
		log = append(log, fmt.Sprintf("consumed@%v", ctx.Now()))
		g.Open()
	})
	r.Spawn("producer", func(ctx Ctx) {
		ctx.Sleep(5 * time.Millisecond)
		mu.Lock()
		ready = true
		mu.Unlock()
		c.Broadcast()
	})
	r.Spawn("observer", func(ctx Ctx) {
		g.Wait(ctx)
		log = append(log, fmt.Sprintf("observed@%v", ctx.Now()))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != "[consumed@5ms observed@5ms]" {
		t.Fatalf("log = %v", log)
	}
	if !g.Opened() {
		t.Error("gate not opened")
	}
}

func TestSimStation(t *testing.T) {
	eng := sim.New()
	r := NewSim(eng, 4)
	disk := r.NewStation("disk0", 1)
	for i := 0; i < 3; i++ {
		r.Spawn(fmt.Sprintf("io%d", i), func(ctx Ctx) {
			disk.Serve(ctx, 7*time.Millisecond)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 21*time.Millisecond {
		t.Fatalf("makespan %v, want 21ms (serialized disk)", eng.Now())
	}
	if u := disk.Utilization(); u < 0.99 {
		t.Errorf("disk utilization %v", u)
	}
}

func TestRealRuntimeBasics(t *testing.T) {
	r := NewReal(RealOptions{TimeScale: 0.001})
	if r.Synthetic() {
		t.Fatal("real runtime must not be synthetic")
	}
	g := r.NewGate("x")
	var mu sync.Mutex
	c := r.NewCond(&mu, "q")
	ready := false
	var order []string
	var omu sync.Mutex
	push := func(s string) { omu.Lock(); order = append(order, s); omu.Unlock() }

	r.Spawn("consumer", func(ctx Ctx) {
		mu.Lock()
		for !ready {
			c.Wait(ctx)
		}
		mu.Unlock()
		push("consumed")
		g.Open()
	})
	r.Spawn("producer", func(ctx Ctx) {
		ctx.Sleep(time.Millisecond) // scaled to ~1µs
		mu.Lock()
		ready = true
		mu.Unlock()
		c.Broadcast()
	})
	r.Spawn("observer", func(ctx Ctx) {
		g.Wait(ctx)
		push("observed")
		ctx.Compute(time.Hour) // no-op on real runtime
	})
	r.Wait()
	omu.Lock()
	defer omu.Unlock()
	if len(order) != 2 || order[0] != "consumed" || order[1] != "observed" {
		t.Fatalf("order = %v", order)
	}
	if !g.Opened() {
		t.Error("gate not opened")
	}
}

func TestRealStationLimitsParallelism(t *testing.T) {
	r := NewReal(RealOptions{TimeScale: 1})
	st := r.NewStation("disk", 1)
	var mu sync.Mutex
	inside, maxInside := 0, 0
	for i := 0; i < 4; i++ {
		r.Spawn(fmt.Sprintf("w%d", i), func(ctx Ctx) {
			st.Serve(ctx, 0)
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			inside--
			mu.Unlock()
		})
	}
	r.Wait()
	if maxInside > 1 {
		// Serve releases before our counter, so this is heuristic; the real
		// assertion is that nothing deadlocks and utilization returns 0.
		t.Logf("observed concurrency %d", maxInside)
	}
	if st.Utilization() != 0 {
		t.Error("real station utilization should report 0")
	}
	if r.Now() < 0 {
		t.Error("Now went backwards")
	}
}

func TestRealGateDoubleOpen(t *testing.T) {
	r := NewReal(RealOptions{})
	g := r.NewGate("x")
	g.Open()
	g.Open() // must not panic
	if !g.Opened() {
		t.Fatal("gate should be open")
	}
}

// TestSimStationSeizeFinish: a request priced between Seize and Finish is
// priced when the station is granted, after the queueing delay, and the grant
// order is FCFS — so dispatch-time pricing sees the true service order.
func TestSimStationSeizeFinish(t *testing.T) {
	eng := sim.New()
	r := NewSim(eng, 4)
	disk := r.NewStation("disk0", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		r.Spawn(fmt.Sprintf("io%d", i), func(ctx Ctx) {
			disk.Seize(ctx)
			order = append(order, i)
			disk.Finish(ctx, 7*time.Millisecond)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 21*time.Millisecond {
		t.Fatalf("makespan %v, want 21ms", eng.Now())
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("grant order %v", order)
	}
}

// TestRealStationSeizeFinish: the code between Seize and Finish runs while
// the slot is held, one request at a time, and a capacity-1 station serves
// its requests one after another: the k-th return comes at least k scaled
// services after the first Seize. (A counter decremented after Finish
// returns would race with the next holder, which may enter as soon as the
// slot is released.)
func TestRealStationSeizeFinish(t *testing.T) {
	r := NewReal(RealOptions{TimeScale: 0.001})
	disk := r.NewStation("disk0", 1)
	const service = 10 * time.Millisecond
	var mu sync.Mutex
	var held int
	var ends []time.Time
	begin := time.Now()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		r.Spawn(fmt.Sprintf("io%d", i), func(ctx Ctx) {
			disk.Seize(ctx)
			mu.Lock()
			held++
			if held > 1 {
				t.Errorf("%d requests hold a capacity-1 station", held)
			}
			held--
			mu.Unlock()
			disk.Finish(ctx, service)
			mu.Lock()
			ends = append(ends, time.Now())
			mu.Unlock()
		})
	}
	go func() { r.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Seize/Finish deadlocked")
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	for k, end := range ends {
		if min := time.Duration(k+1) * r.scaled(service); end.Sub(begin) < min {
			t.Fatalf("return %d came %v after the first Seize, within %d services (%v)", k, end.Sub(begin), k+1, min)
		}
	}
}

// TestRealStationOvershootDoesNotQueue: a host's timer wakes a short sleep
// late, often by far more than the scaled service. The lateness must delay
// only the sleeper: 200 queued 10 µs services on one server end near 2 ms,
// not 200 timer overshoots later.
func TestRealStationOvershootDoesNotQueue(t *testing.T) {
	r := NewReal(RealOptions{TimeScale: 0.001})
	disk := r.NewStation("disk0", 1)
	const n, service = 200, 10 * time.Millisecond
	begin := time.Now()
	for i := 0; i < n; i++ {
		r.Spawn(fmt.Sprintf("io%d", i), func(ctx Ctx) { disk.Serve(ctx, service) })
	}
	r.Wait()
	if took, bound := time.Since(begin), n*r.scaled(service)+50*time.Millisecond; took > bound {
		t.Errorf("%d services of %v took %v, over %v", n, r.scaled(service), took, bound)
	}
}

// foreignCtx is a Ctx from outside the package: it has no slot for a span.
type foreignCtx struct{ Ctx }

// TestWithSpan checks the derivation rule on both runtimes: a copy that
// carries the span and still is the runtime's own ctx type (the simulator
// asserts it), the original left inert for whoever shares it, and the
// identical ctx back — no allocation — when there is nothing to change.
func TestWithSpan(t *testing.T) {
	tr := trace.NewTracer(func() time.Duration { return 0 }, trace.TracerOptions{})
	sp := tr.StartRoot(1, "server", "query")

	check := func(ctx Ctx, gate Gate) {
		if got := WithSpan(ctx, trace.SpanContext{}); got != ctx {
			t.Errorf("%T: inert span under an inert ctx derived a new ctx", ctx)
		}
		if n := testing.AllocsPerRun(100, func() { WithSpan(ctx, trace.SpanContext{}) }); n != 0 {
			t.Errorf("%T: inert WithSpan allocates %v", ctx, n)
		}
		d := WithSpan(ctx, sp)
		if d == ctx || SpanOf(d) != sp {
			t.Errorf("%T: derived ctx does not carry the span", ctx)
		}
		if SpanOf(ctx).Active() {
			t.Errorf("%T: deriving wrote the shared ctx", ctx)
		}
		if WithSpan(d, sp) != d {
			t.Errorf("%T: re-deriving under the same span copied again", ctx)
		}
		if SpanOf(WithSpan(d, trace.SpanContext{})).Active() {
			t.Errorf("%T: inert span did not replace an active one", ctx)
		}
		if d.Name() != ctx.Name() || d.Synthetic() != ctx.Synthetic() {
			t.Errorf("%T: derived ctx is another process", ctx)
		}
		gate.Open()
		gate.Wait(d) // panics unless d is the runtime's own ctx type
	}

	eng := sim.New()
	sr := NewSim(eng, 1)
	sr.Spawn("p", func(ctx Ctx) { check(ctx, sr.NewGate("g")) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rr := NewReal(RealOptions{})
	rr.Spawn("p", func(ctx Ctx) { check(ctx, rr.NewGate("g")) })
	rr.Wait()

	f := foreignCtx{}
	if got := WithSpan(f, sp); got != Ctx(f) || SpanOf(got).Active() {
		t.Error("a foreign Ctx must come back as is, with no span")
	}
}
