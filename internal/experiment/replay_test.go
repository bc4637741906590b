package experiment

import (
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/vm"
	"mqsched/internal/vol"
)

// TestReplay holds the one replayer to its contract over every kind of
// stream and pacing it is handed: each item is submitted exactly once and
// answered; closed pacing keeps a user's queries in order, one in flight,
// a think time apart; open pacing releases no item before its At and does
// not wait for answers; and the server's reused + computed output bytes add
// up to the bytes of the answers. The rows carry what driver.Launch's three
// tests (interactive, batch, think time) used to check.
func TestReplay(t *testing.T) {
	paper := Config{SlideSide: 8192, Clients: 4, QueriesPerClient: 3, Seed: 5, Op: vm.Subsample}.withDefaults()
	vmSystem := func(t *testing.T) *mqsched.System {
		sys, err := paper.assembleVM()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	dims := vol.Dims{Width: 8192, Height: 8192, Depth: 64}
	volSystem := func(t *testing.T) *mqsched.System {
		app := vol.New()
		table := dataset.NewTable(app.Add("vol1", dims), app.Add("vol2", dims))
		app.Finish(table)
		sys, err := paper.assemble(table, app)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	poisson := load.Build(load.GenConfig{Users: 20, OutputSide: 256, Op: vm.Average, Seed: 2},
		paper.Slides(), load.ArrivalConfig{Process: load.Poisson, Rate: 5, Seed: 2}, 30)

	for _, c := range []struct {
		name   string
		system func(*testing.T) *mqsched.System
		items  []load.Item
		pacing load.Pacing
	}{
		{"paper stream closed", vmSystem, paper.Stream(), load.Closed(0)},
		{"paper stream at 0 open", vmSystem, paper.Stream(), load.Open},
		{"poisson stream open", vmSystem, poisson, load.Open},
		{"vol stream closed think 500ms", volSystem,
			load.FromClients(volumeWorkload(dims, 1, 3, 4)), load.Closed(500 * time.Millisecond)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := c.system(t)
			done, err := Replay(sys, c.items, c.pacing)
			if err != nil {
				t.Fatal(err)
			}

			// Exactly once: every item has one answer, to its own predicate.
			answers := make([]*Done, len(c.items))
			var bytes int64
			for i := range done {
				d := &done[i]
				if answers[d.Seq] != nil {
					t.Fatalf("item %d answered twice", d.Seq)
				}
				answers[d.Seq] = d
				if d.Item != c.items[d.Seq] || d.Result.Meta != d.Item.Meta {
					t.Fatalf("item %d: answer %v to %+v, stream holds %+v", d.Seq, d.Result.Meta, d.Item, c.items[d.Seq])
				}
				if d.ResponseTime() <= 0 {
					t.Errorf("item %d: response time %v", d.Seq, d.ResponseTime())
				}
				bytes += d.Blob.Size
			}
			st := sys.Stats().Server
			if len(done) != len(c.items) || st.Submitted != int64(len(c.items)) || st.Completed != st.Submitted {
				t.Fatalf("%d items: %d answered, server submitted %d completed %d", len(c.items), len(done), st.Submitted, st.Completed)
			}
			if got := st.ReusedOutputBytes + st.ComputedOutputBytes; got != bytes {
				t.Errorf("reused %d + computed %d output bytes = %d, the answers hold %d", st.ReusedOutputBytes, st.ComputedOutputBytes, got, bytes)
			}

			if c.pacing.Closed {
				// One in flight per user, in stream order, a think time apart.
				for _, list := range load.ByUser(c.items) {
					for i := 1; i < len(list); i++ {
						prev, next := answers[list[i-1].Seq], answers[list[i].Seq]
						if gap := next.Arrival - prev.Completed; gap < c.pacing.Think {
							t.Errorf("user %d: item %d arrived %v after item %d's answer, think time %v",
								list[i].User, next.Seq, gap, prev.Seq, c.pacing.Think)
						}
					}
				}
				return
			}
			// Open: the clock alone releases an item, at its instant and not
			// when an answer comes back — so a stream at 0 is one batch,
			// queued whole before anything runs.
			for _, d := range answers {
				if d.Arrival != d.At {
					t.Errorf("item %d arrived at %v, its At is %v", d.Seq, d.Arrival, d.At)
				}
			}
		})
	}
}

// TestReplayRefusals: a bad pacing is refused before anything is submitted,
// and a summary of a stream with no last instant offers no rate — not +Inf,
// which the cache sweep's JSON would refuse.
func TestReplayRefusals(t *testing.T) {
	cfg := Config{SlideSide: 8192, Clients: 2, QueriesPerClient: 2, Seed: 1, Batch: true}
	sys, err := cfg.withDefaults().assembleVM()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(sys, cfg.Stream(), load.Closed(-time.Second)); err == nil {
		t.Error("a negative think time was accepted")
	}
	if n := sys.Stats().Server.Submitted; n != 0 {
		t.Errorf("%d queries submitted under a refused pacing", n)
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offered != 0 || m.Queries != 4 || m.Measured != 4 || !(m.AchievedQPS > 0) {
		t.Errorf("batch: offered %v qps, %d queries, %d measured, achieved %v qps; want unpaced (0), 4, 4, > 0",
			m.Offered, m.Queries, m.Measured, m.AchievedQPS)
	}
	timed := load.Build(load.GenConfig{Users: 5, OutputSide: 256, Seed: 1}, cfg.Slides(),
		load.ArrivalConfig{Process: load.Constant, Rate: 4}, 8)
	if m, err = RunWorkload(cfg, timed, load.Open, 0); err != nil || m.Offered != 4 {
		t.Errorf("constant 4 qps stream: offered %v, err %v", m.Offered, err)
	}
	if m, err = RunWorkload(cfg, timed, load.Closed(0), 0); err != nil || m.Offered != 0 {
		t.Errorf("closed pacing: offered %v, err %v; the instants are not honoured, so 0", m.Offered, err)
	}
}
