package mqsched_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/experiment"
	"mqsched/internal/load"
	"mqsched/internal/netproto"
	"mqsched/internal/query"
	"mqsched/internal/sched"
	"mqsched/internal/vm"
)

// TestOneResultShape replays one stream in virtual time and on the wire and
// subtracts the two summaries: the same stream and warmup give the same
// counts and offered rate, and both figures obey the same bounds.
func TestOneResultShape(t *testing.T) {
	cfg := experiment.Config{Policy: "cnbf", Op: vm.Subsample, SlideSide: 4096}
	cfg.Threads = 4
	table := cfg.Slides()
	items := load.Build(load.GenConfig{Users: 20, OutputSide: 64, Op: vm.Subsample, Seed: 1},
		table, load.ArrivalConfig{Process: load.Constant, Rate: 100}, 40)
	const warmup = 100 * time.Millisecond

	sim, err := experiment.RunWorkload(cfg, items, load.Open, warmup)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := mqsched.New(mqsched.Config{Mode: mqsched.Real, Policy: "cnbf", Threads: 4, TimeScale: 0.0005}, table)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go netproto.Serve(l, sys, func(string, ...any) {})
	wire, _, err := load.Run(load.RunnerConfig{Addrs: []string{l.Addr().String()}, Workers: 8, Warmup: warmup}, items, load.Open)
	if err != nil {
		t.Fatal(err)
	}

	if sim.Queries != wire.Queries || sim.Measured != wire.Measured || sim.Offered != wire.Offered {
		t.Errorf("queries %d/%d, measured %d/%d, offered %v/%v: sim and wire disagree",
			sim.Queries, wire.Queries, sim.Measured, wire.Measured, sim.Offered, wire.Offered)
	}
	if sim.Queries != len(items) || sim.Measured == 0 || sim.Measured == sim.Queries {
		t.Errorf("sim: %d answered, %d measured of %d items; want all, and a warmup that excludes some", sim.Queries, sim.Measured, len(items))
	}
	for name, s := range map[string]load.Summary{"sim": sim.Summary, "wire": wire} {
		if s.Errors != 0 || s.Dropped != 0 {
			t.Errorf("%s: %d errors, %d dropped", name, s.Errors, s.Dropped)
		}
		if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.MaxResponse) {
			t.Errorf("%s: p50 %v p95 %v p99 %v max %v out of order", name, s.P50, s.P95, s.P99, s.MaxResponse)
		}
		for label, f := range map[string]float64{"overlap": s.AvgOverlap, "reused bytes": s.ReusedBytesFrac} {
			if !(f >= 0 && f <= 1) {
				t.Errorf("%s: %s %v outside [0, 1]", name, label, f)
			}
		}
	}
}

// TestSubstratesDecideAlike replays one closed-loop client at one query
// thread on the simulated and the real runtime and asserts that both take
// the same decisions: per query the same reused fraction, raw bytes read
// and producers waited on, and the same data store and page space counters
// at the end. With one query in flight, arrival order and the scheduler's
// choices are not timing, so any difference is a decision that depends on
// the substrate. The cache policy is lru only: cost prices a result by its
// production time on the runtime's clock, which is the wall clock on the
// real runtime, so its admissions and evictions follow host noise.
func TestSubstratesDecideAlike(t *testing.T) {
	table := experiment.Config{SlideSide: 4096}.Slides()
	items := load.Build(load.GenConfig{Users: 1, OutputSide: 256, Op: vm.Subsample, Seed: 3},
		table, load.ArrivalConfig{Process: load.Constant, Rate: 100}, 120)
	policies := append(sched.Names(), "combined", "ra") // the paper's six, batch and §6's two
	if testing.Short() {
		policies = []string{"fifo", "cnbf"}
	}
	for _, policy := range policies {
		for _, io := range []disk.Sched{disk.SchedFIFO, disk.SchedElevator} {
			for _, noBlock := range []bool{false, true} {
				cfg := mqsched.Config{Policy: policy, IOSched: io, DisableBlocking: noBlock,
					Threads: 1, DSBudget: 4 << 20, DSPolicy: datastore.PolicyLRU}
				name := fmt.Sprintf("%s/%s/noblock=%v", policy, io, noBlock)
				sim, simStats := replayOnce(t, cfg, table, items)
				cfg.Mode, cfg.TimeScale = mqsched.Real, 0.0005
				real, realStats := replayOnce(t, cfg, table, items)
				for seq, s := range sim {
					r := real[seq]
					if s.ReusedFrac != r.ReusedFrac || s.InputBytesRead != r.InputBytesRead || s.WaitedOnExecuting != r.WaitedOnExecuting {
						t.Errorf("%s: query %d: sim reused %v, read %d, waited on %d; real %v, %d, %d", name, seq,
							s.ReusedFrac, s.InputBytesRead, s.WaitedOnExecuting, r.ReusedFrac, r.InputBytesRead, r.WaitedOnExecuting)
					}
				}
				if simStats.DataStore.Evictions == 0 || simStats.DataStore.ReusedBytes == 0 {
					t.Errorf("%s: the stream neither evicts nor reuses (%+v), so agreement shows nothing", name, simStats.DataStore)
				}
				if simStats.DataStore != realStats.DataStore {
					t.Errorf("%s: data store stats differ:\nsim  %+v\nreal %+v", name, simStats.DataStore, realStats.DataStore)
				}
				if simStats.PageSpace != realStats.PageSpace {
					t.Errorf("%s: page space stats differ:\nsim  %+v\nreal %+v", name, simStats.PageSpace, realStats.PageSpace)
				}
			}
		}
	}
}

// replayOnce assembles cfg over table, replays items closed-loop and returns
// each answer by its stream position with the system's counters.
func replayOnce(t *testing.T, cfg mqsched.Config, table *dataset.Table, items []load.Item) (map[int]*query.Result, mqsched.Stats) {
	t.Helper()
	sys, err := mqsched.New(cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	done, err := experiment.Replay(sys, items, load.Closed(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(items) {
		t.Fatalf("%d of %d items answered", len(done), len(items))
	}
	bySeq := make(map[int]*query.Result, len(done))
	for _, d := range done {
		bySeq[d.Seq] = d.Result
	}
	return bySeq, sys.Stats()
}
