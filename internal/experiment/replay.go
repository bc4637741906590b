package experiment

import (
	"cmp"
	"fmt"
	"sync"

	"mqsched"
	"mqsched/internal/load"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/server"
)

// Done is one answered item of a replayed stream.
type Done struct {
	load.Item
	*query.Result
}

// record is d as both replayers report an item: on the system's virtual
// clock, sent at its arrival and received at its completion.
func (d Done) record() load.Done {
	return load.Done{Item: d.Item, Sent: d.Arrival, Received: d.Completed,
		Wait: d.WaitTime(), Exec: d.ExecTime(), ReusedFrac: d.ReusedFrac}
}

// Replay drives an assembled system through the stream to completion under
// pacing p and returns every answered item in completion order: the one loop
// that submits a workload. Closed pacing starts a client process per user
// that keeps one query in flight and thinks after each answer; open pacing
// starts one dispatcher that sleeps to each item's At (on the system's clock,
// from the call) and a waiter process per query, so arrivals never wait for
// completions. The processes are the system's clients, so its Run returns
// once the stream has drained. A refused Submit ends its user's list (closed)
// or skips the item (open); the first is returned with what did complete.
func Replay(sys *mqsched.System, items []load.Item, p load.Pacing) ([]Done, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var (
		mu     sync.Mutex
		done   = make([]Done, 0, len(items))
		failed error
	)
	// submit hands one item to the system (nil and the refusal remembered if
	// it is closed); answer parks the calling process on the ticket.
	submit := func(it load.Item) *server.Ticket {
		tk, err := sys.Submit(it.Meta)
		if err != nil {
			mu.Lock()
			failed = cmp.Or(failed, fmt.Errorf("item %d: %w", it.Seq, err))
			mu.Unlock()
		}
		return tk
	}
	answer := func(ctx rt.Ctx, it load.Item, tk *server.Ticket) {
		res := tk.Wait(ctx)
		mu.Lock()
		done = append(done, Done{it, res})
		mu.Unlock()
	}

	if p.Closed {
		for _, list := range load.ByUser(items) {
			sys.Start(fmt.Sprintf("client-%d", list[0].User), func(ctx rt.Ctx) {
				for _, it := range list {
					tk := submit(it)
					if tk == nil {
						return
					}
					answer(ctx, it, tk)
					if p.Think > 0 {
						ctx.Sleep(p.Think)
					}
				}
			})
		}
	} else {
		start := sys.Runtime().Now()
		sys.Start("dispatcher", func(ctx rt.Ctx) {
			for _, it := range items {
				if d := it.At - (ctx.Now() - start); d > 0 {
					ctx.Sleep(d)
				}
				if tk := submit(it); tk != nil {
					sys.Start(fmt.Sprintf("wait-%d", it.Seq), func(ctx rt.Ctx) { answer(ctx, it, tk) })
				}
			}
		})
	}
	if err := sys.Run(); err != nil {
		return done, err
	}
	return done, failed
}
