package experiment

import (
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

func loadStream(t *testing.T, rate float64, n int) []load.Item {
	t.Helper()
	return load.Build(load.GenConfig{
		Users: 100, DatasetZipfS: 1.1, HotspotZipfS: 1.2, UserZipfS: 0.6,
		OutputSide: 512, Op: vm.Subsample, Seed: 1,
	}, Config{}.Slides(), load.ArrivalConfig{Process: load.Poisson, Rate: rate, Seed: 1}, n)
}

// figures is a run's numbers alone: without the registry snapshot and the
// tracer, two runs' metrics compare by value.
func figures(m Metrics) Metrics {
	m.Registry, m.Spans = nil, nil
	return m
}

// TestRunLoadDeterministic checks the whole sim-side load pipeline is
// reproducible: same stream, same config, identical metrics.
func TestRunLoadDeterministic(t *testing.T) {
	items := loadStream(t, 50, 120)
	cfg := Config{Policy: "cnbf", Op: vm.Subsample}
	a, err := RunWorkload(cfg, items, load.Open, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(cfg, items, load.Open, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if figures(a) != figures(b) {
		t.Fatalf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
	if a.Queries != len(items) {
		t.Fatalf("completed %d of %d queries", a.Queries, len(items))
	}
	if a.Measured >= a.Queries {
		t.Fatalf("warmup excluded nothing: measured %d of %d", a.Measured, a.Queries)
	}
	if a.P50 <= 0 || a.P95 < a.P50 || a.P99 < a.P95 || a.MaxResponse < a.P99 {
		t.Fatalf("percentiles not ordered: %+v", a)
	}
	if a.AchievedQPS <= 0 {
		t.Fatalf("no throughput measured: %+v", a)
	}
}

// TestRunLoadOverloadQueues checks the open loop exposes queueing: offered
// load far beyond capacity must inflate latency relative to a light load,
// which closed-loop clients structurally cannot show.
func TestRunLoadOverloadQueues(t *testing.T) {
	cfg := Config{Policy: "fifo", Op: vm.Subsample, Config: mqsched.Config{Threads: 2}}
	light, err := RunWorkload(cfg, loadStream(t, 2, 40), load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := RunWorkload(cfg, loadStream(t, 400, 400), load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.P95 < 2*light.P95 {
		t.Errorf("overload p95 %.3fs vs light p95 %.3fs: open loop should expose queueing",
			heavy.P95, light.P95)
	}
}

// TestRunLoadStrategiesDiffer checks the harness distinguishes ranking
// strategies on the skewed workload (the point of the instrument).
func TestRunLoadStrategiesDiffer(t *testing.T) {
	items := loadStream(t, 100, 200)
	fifo, err := RunWorkload(Config{Policy: "fifo", Op: vm.Subsample}, items, load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	cnbf, err := RunWorkload(Config{Policy: "cnbf", Op: vm.Subsample}, items, load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Policy == cnbf.Policy {
		t.Fatal("policies not propagated")
	}
	if figures(fifo) == figures(cnbf) {
		t.Error("fifo and cnbf produced identical metrics on a skewed stream")
	}
	if cnbf.AvgOverlap <= 0 {
		t.Errorf("no cache reuse under cnbf on a hotspot-skewed stream: %+v", cnbf)
	}
}

// TestRunLoadValidation covers the error paths.
func TestRunLoadValidation(t *testing.T) {
	if _, err := RunWorkload(Config{}, nil, load.Open, 0); err == nil {
		t.Error("empty stream should fail")
	}
	items := loadStream(t, 10, 5)
	if _, err := RunWorkload(Config{}, items, load.Open, -time.Second); err == nil {
		t.Error("negative warmup should fail")
	}
	if _, err := RunWorkload(Config{Policy: "nope"}, items, load.Open, 0); err == nil {
		t.Error("unknown policy should fail")
	}
}

// TestRunLoadCostPolicy runs the same stream under both cache policies:
// deterministic, policy propagated, and the cost policy's accounting
// populated (stats flow through to Metrics).
func TestRunLoadCostPolicy(t *testing.T) {
	items := loadStream(t, 100, 200)
	lru, err := RunWorkload(Config{Policy: "cnbf", Op: vm.Subsample}, items, load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := RunWorkload(Config{Policy: "cnbf", Op: vm.Subsample, Config: mqsched.Config{DSPolicy: "cost"}}, items, load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunWorkload(Config{Policy: "cnbf", Op: vm.Subsample, Config: mqsched.Config{DSPolicy: "cost"}}, items, load.Open, 0)
	if err != nil {
		t.Fatal(err)
	}
	if figures(cost) != figures(again) {
		t.Fatalf("cost-policy runs not deterministic:\n%+v\n%+v", cost, again)
	}
	if lru.DataStore.AdmitRejects != 0 || lru.DataStore.GhostHits != 0 {
		t.Fatalf("lru run shows cost-policy accounting: %+v", lru.DataStore)
	}
	if lru.ReusedBytesFrac <= 0 || cost.ReusedBytesFrac <= 0 {
		t.Fatalf("reused-bytes fraction not populated: lru %v, cost %v",
			lru.ReusedBytesFrac, cost.ReusedBytesFrac)
	}
	// Materialized parents are submitted by the server itself, on top of the
	// stream's queries.
	if lru.Server.Completed != int64(len(items)) ||
		cost.Server.Completed != int64(len(items))+cost.Server.Materializations {
		t.Fatalf("server stats not propagated: lru %+v cost %+v", lru.Server, cost.Server)
	}
	// Unknown policy is rejected up front.
	if _, err := RunWorkload(Config{Config: mqsched.Config{DSPolicy: "mru"}}, items, load.Open, 0); err == nil {
		t.Error("unknown DS policy should fail")
	}
}
