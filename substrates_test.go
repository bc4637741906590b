package mqsched_test

import (
	"net"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/experiment"
	"mqsched/internal/load"
	"mqsched/internal/netproto"
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
