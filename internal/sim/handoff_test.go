package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// resumeOrder runs 32 seeded processes that mix every way a process parks
// (Sleep, Yield, Gate, Cond, Resource.Use and UseWith) and spawn children,
// and returns an FNV-64a hash of the sequence of resumes, each recorded as
// (virtual time, process name), with the number of resumes.
func resumeOrder(t *testing.T, seed int64) (sum uint64, resumes int) {
	e := New()
	h := fnv.New64a()
	note := func(p *Proc) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(p.Now()))
		h.Write(b[:])
		h.Write([]byte(p.Name()))
		h.Write([]byte{0})
		resumes++
	}

	gates := make([]*Gate, 4)
	for i := range gates {
		gates[i] = e.NewGate(fmt.Sprintf("g%d", i))
	}
	tick := e.NewCond("tick")
	disk := e.NewResource("disk", 1)
	cpus := e.NewResource("cpu", 3)
	live := 0 // workers started and not finished; the ticker runs while any are

	var spawn func(name string, rng *rand.Rand, steps, depth int)
	spawn = func(name string, rng *rand.Rand, steps, depth int) {
		live++
		e.Go(name, func(p *Proc) {
			defer func() { live-- }()
			note(p)
			for s := 0; s < steps; s++ {
				switch rng.Intn(7) {
				case 0:
					p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				case 1:
					p.Yield()
				case 2:
					gates[rng.Intn(len(gates))].Wait(p)
				case 3:
					tick.Wait(p)
				case 4:
					disk.Use(p, time.Duration(rng.Intn(3)+1)*time.Millisecond)
				case 5:
					d := time.Duration(rng.Intn(4)) * 500 * time.Microsecond
					cpus.UseWith(p, func() time.Duration { return d })
				case 6:
					if depth < 2 {
						child := rand.New(rand.NewSource(rng.Int63()))
						spawn(fmt.Sprintf("%s.%d", name, s), child, 3+rng.Intn(4), depth+1)
					}
					p.Yield()
				}
				note(p)
			}
		})
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 32; i++ {
		spawn(fmt.Sprintf("w%02d", i), rand.New(rand.NewSource(rng.Int63())), 10+rng.Intn(20), 0)
	}
	e.Go("opener", func(p *Proc) {
		for _, g := range gates {
			p.Sleep(time.Duration(1+rng.Intn(6)) * time.Millisecond)
			note(p)
			g.Open()
		}
	})
	e.Go("ticker", func(p *Proc) {
		for live > 0 {
			p.Sleep(700 * time.Microsecond)
			note(p)
			if rng.Intn(3) == 0 {
				tick.Signal()
			} else {
				tick.Broadcast()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.Now()))
	h.Write(b[:])
	return h.Sum64(), resumes
}

// TestResumeOrderPinned pins the order in which the engine resumes
// processes. Events fire in (time, creation) order however control passes
// between goroutines, so any change to the engine's dispatch must leave this
// hash alone.
func TestResumeOrderPinned(t *testing.T) {
	const wantSum, wantResumes = 0x1cab504a4506afc, 2109
	sum, resumes := resumeOrder(t, 1)
	if sum2, resumes2 := resumeOrder(t, 1); sum2 != sum || resumes2 != resumes {
		t.Fatalf("two runs differ: %#x/%d vs %#x/%d", sum, resumes, sum2, resumes2)
	}
	if sum != wantSum || resumes != wantResumes {
		t.Fatalf("resume order %#x/%d, want %#x/%d", sum, resumes, uint64(wantSum), wantResumes)
	}
}

// TestRunUntilBoundDuringHandoff: a process parks and the next event lies
// past the RunUntil bound, so control goes back to Run's caller instead of
// to that event's process; a later Run continues in order.
func TestRunUntilBoundDuringHandoff(t *testing.T) {
	e := New()
	var log []string
	rec := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }
	e.Go("a", func(p *Proc) {
		p.Sleep(time.Second)
		rec(p)
		p.Sleep(time.Second) // the next event, b@2s, is past the bound
		rec(p)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Second)
		rec(p)
	})
	if err := e.RunUntil(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != "[a@1s]" || e.Now() != 1500*time.Millisecond {
		t.Fatalf("after RunUntil: log %v, clock %v", log, e.Now())
	}
	if err := e.RunUntil(2 * time.Second); err != nil { // the bound is inclusive
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != "[a@1s b@2s a@2s]" || e.Now() != 2*time.Second {
		t.Fatalf("after Run: log %v, clock %v", log, e.Now())
	}
}

// TestPanicInHandedOffProcess: a process that another process resumed (not
// Run's goroutine) panics; Run still re-panics and nothing else runs.
func TestPanicInHandedOffProcess(t *testing.T) {
	e := New()
	late := false
	e.Go("a", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		panic("kaput")
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		late = true
	})
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, `process "b" panicked: kaput`) {
			t.Fatalf("recovered %v", r)
		}
		if late || e.Now() != 2*time.Millisecond {
			t.Fatalf("after the panic: c ran %v, clock %v", late, e.Now())
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned")
}

// TestGoexitInProcessEndsRun: a process that calls runtime.Goexit (as
// t.FailNow does) ends Run's goroutine with it. Run does not return, no later
// process runs, and the clock stays at the exiting process's event.
func TestGoexitInProcessEndsRun(t *testing.T) {
	e := New()
	late := false
	e.Go("a", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		runtime.Goexit()
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		late = true
	})
	returned := false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		_ = e.Run()
		returned = true
	}()
	<-ended
	if returned || late || e.Now() != 2*time.Millisecond {
		t.Fatalf("after the Goexit: Run returned %v, c ran %v, clock %v", returned, late, e.Now())
	}
}

// TestDeadlockWhenLastRunnableParks: the last process with work parks on a
// condition nobody will signal; Run reports every parked process.
func TestDeadlockWhenLastRunnableParks(t *testing.T) {
	e := New()
	g := e.NewGate("g")
	c := e.NewCond("c")
	r := e.NewResource("r", 1)
	e.Go("a", func(p *Proc) { g.Wait(p) })
	e.Go("b", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		r.Acquire(p)
		c.Wait(p)
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(6 * time.Millisecond)
		r.Acquire(p)
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := "[a: gate g b: cond c c: resource r]"
	if dl.Time != 6*time.Millisecond || dl.Live != 3 || fmt.Sprint(dl.Parked) != want {
		t.Fatalf("deadlock = %+v, want parked %s at 6ms", dl, want)
	}
}

// TestLoneSleeperResumesItself: with nothing else due, a sleeping process's
// own wakeup is the next event, and it keeps running through RunUntil bounds
// and a final Run.
func TestLoneSleeperResumesItself(t *testing.T) {
	e := New()
	var at []time.Duration
	e.Go("lone", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Duration(i%3) * time.Millisecond)
			at = append(at, p.Now())
		}
	})
	if err := e.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 50*time.Millisecond || at[len(at)-1] > 50*time.Millisecond {
		t.Fatalf("after RunUntil: clock %v, last wakeup %v", e.Now(), at[len(at)-1])
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want time.Duration
	for i, got := range at {
		want += time.Duration(i%3) * time.Millisecond
		if got != want {
			t.Fatalf("wakeup %d at %v, want %v", i, got, want)
		}
	}
	if len(at) != 100 || e.Now() != want {
		t.Fatalf("%d wakeups, clock %v, want 100 and %v", len(at), e.Now(), want)
	}
}

// TestEventsDoNotAllocate: once running, neither a lone sleeper (every event
// its own) nor two processes waking each other through conditions (every
// other event a handoff) allocates per event.
func TestEventsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(e *Engine, stop *bool)
	}{
		{"self-sleep", func(e *Engine, stop *bool) {
			e.Go("sleeper", func(p *Proc) {
				for !*stop {
					p.Sleep(time.Microsecond)
				}
			})
		}},
		{"cond-ping-pong", func(e *Engine, stop *bool) {
			ping, pong := e.NewCond("ping"), e.NewCond("pong")
			e.Go("ping", func(p *Proc) {
				for {
					ping.Wait(p)
					pong.Signal()
					if *stop {
						return
					}
				}
			})
			e.Go("pong", func(p *Proc) {
				for !*stop {
					p.Sleep(time.Microsecond)
					ping.Signal()
					pong.Wait(p)
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			stop := false
			tc.start(e, &stop)
			allocs := testing.AllocsPerRun(100, func() {
				if err := e.RunUntil(e.Now() + 50*time.Microsecond); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations per 50 µs of events, want 0", allocs)
			}
			stop = true
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineSelfSleep: one process sleeping in a loop; every event is
// the sleeper's own wakeup.
func BenchmarkEngineSelfSleep(b *testing.B) {
	e := New()
	n := b.N
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
}

// BenchmarkEnginePingPong: two processes wake each other through a pair of
// conditions; every event passes control from one process to the other.
func BenchmarkEnginePingPong(b *testing.B) {
	e := New()
	ping, pong := e.NewCond("ping"), e.NewCond("pong")
	rounds := b.N/2 + 1
	e.Go("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Wait(p)
			pong.Signal()
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Signal()
			pong.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*rounds), "ns/event")
}

// BenchmarkEngineSharedDisk: the shape of the simulated page loop. Sixteen
// processes each loop over one disk read (Use, capacity 1) and one compute
// step (UseWith, capacity 4), so most events hand the engine from one
// process to another through the disk's queue.
func BenchmarkEngineSharedDisk(b *testing.B) {
	e := New()
	disk := e.NewResource("disk", 1)
	cpus := e.NewResource("cpu", 4)
	const procs = 16
	rounds := b.N/procs + 1
	compute := func() time.Duration { return 3 * time.Millisecond }
	for i := 0; i < procs; i++ {
		e.Go(fmt.Sprintf("q%02d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				disk.Use(p, time.Millisecond)
				cpus.UseWith(p, compute)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.seq), "ns/event")
}
