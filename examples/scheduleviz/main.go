// Scheduleviz: render the schedules two ranking strategies produce for the
// same workload as ASCII Gantt charts — waiting ('·'), executing ('█'), and
// blocked-on-a-producer ('x') phases per query. FIFO runs queries strictly
// in arrival order; CNBF reorders the queue so consumers run right after
// their producers' results are cached, which shows up as shorter rows and
// fewer 'x' phases.
package main

import (
	"fmt"
	"log"

	"mqsched"
	"mqsched/internal/traceviz"
)

const slideSide = int64(16384)

func main() {
	for _, policy := range []string{"fifo", "cnbf"} {
		fmt.Printf("--- %s ---\n", policy)
		fmt.Print(run(policy))
		fmt.Println()
	}
}

// run executes a small deliberately overlap-heavy batch and returns the
// rendered schedule.
func run(policy string) string {
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s", Width: slideSide, Height: slideSide})
	sys, err := mqsched.New(mqsched.Config{
		Mode:    mqsched.Simulated,
		Policy:  policy,
		Threads: 3,
		// The schedule is read back from the span trees: server/query roots,
		// their sched/wait children and server/block stalls.
		TraceSpans: true,
	}, table)
	if err != nil {
		log.Fatal(err)
	}

	err = sys.RunWith(func(ctx mqsched.Ctx) {
		// Three families of overlapping queries, interleaved in arrival
		// order so FIFO cannot exploit the overlap.
		var tickets []*mqsched.Ticket
		submit := func(x0, y0, side, zoom int64) {
			x0, y0 = x0/zoom*zoom, y0/zoom*zoom
			q := mqsched.NewVMQuery("s", mqsched.R(x0, y0, x0+side*zoom, y0+side*zoom), zoom, mqsched.Subsample)
			tk, err := sys.Submit(q)
			if err != nil {
				log.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		for round := int64(0); round < 4; round++ {
			submit(0, 0, 768, 8)                 // family A: big zoom-8 view
			submit(1024, 9000, 768, 4)           // family B
			submit(9000, 1000+round*256, 768, 2) // family C pans downward
		}
		for _, tk := range tickets {
			tk.Wait(ctx)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats().Server
	return traceviz.Gantt(traceviz.LoadSpans(policy, sys.Spans().Spans(), nil), 100) +
		fmt.Sprintf("completed=%d canceled=%d blocked=%d projections=%d disk=%0.1fGB\n",
			st.Completed, st.Canceled, st.Blocks, st.Projections,
			float64(sys.Stats().Disk.BytesRead)/(1<<30))
}
