package server

import (
	"fmt"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/pagespace"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/testapp"
)

// TestSubmitStormPublication is the regression test for the node-publication
// race: Submit must fully construct a node (Payload, WaitSpan) before it
// becomes dequeueable. On the pre-fix code — insert first, assign Payload
// after — a worker already churning the queue (so never synchronizing with
// this Submit's cond.Signal) could dequeue the node in the window between
// Insert and the Payload store and hit a nil type assertion in execute, or
// trip the race detector on Payload/WaitSpan. The storm below maximizes
// churn: the datastore is warmed first so every storm query is a full hit
// and executes in microseconds, and submitters batch their submissions so
// the queue never drains and the workers loop on Dequeue at full speed.
func TestSubmitStormPublication(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 0.000001})
	l := dataset.New("d", 400, 400, 1, 100)
	table := dataset.NewTable(l)
	app := testapp.New(table)
	farm := disk.NewFarm(rtm, disk.Config{Disks: 4}, testapp.Generate)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 8 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 8 << 20})
	graph := sched.New(rtm, app, sched.CF{Alpha: 0.2})
	srv := New(rtm, app, graph, ds, ps, Options{Threads: 8, DisableBlocking: true})

	// Warm the datastore so the storm queries below are all full hits.
	warmed := make(chan struct{})
	rtm.Spawn("warm", func(ctx rt.Ctx) {
		tk, err := srv.Submit(m(geom.R(0, 0, 400, 400)))
		if err != nil {
			t.Error(err)
		} else {
			tk.Wait(ctx)
		}
		close(warmed)
	})

	const submitters = 16
	const perSubmitter = 64
	const batch = 8
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		i := i
		rtm.Spawn(fmt.Sprintf("storm%d", i), func(ctx rt.Ctx) {
			<-warmed
			tickets := make([]*Ticket, 0, batch)
			for q := 0; q < perSubmitter; q++ {
				x := int64((i*37 + q*53) % 340)
				y := int64((i*71 + q*29) % 340)
				tk, err := srv.Submit(m(geom.R(x, y, x+40, y+40)))
				if err != nil {
					errs <- err
					return
				}
				tickets = append(tickets, tk)
				if len(tickets) == batch {
					for _, tk := range tickets {
						if res := tk.Wait(ctx); res.Blob == nil {
							errs <- fmt.Errorf("submitter %d: nil blob", i)
							return
						}
					}
					tickets = tickets[:0]
				}
			}
			for _, tk := range tickets {
				tk.Wait(ctx)
			}
			errs <- nil
		})
	}
	for i := 0; i < submitters; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	rtm.Wait()
	if got := srv.Stats().Completed; got != submitters*perSubmitter+1 {
		t.Fatalf("completed %d of %d", got, submitters*perSubmitter+1)
	}
}
