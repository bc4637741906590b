package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Get-or-create returns the same series.
	if again := r.Counter("test_ops_total", "ops", L("kind", "a")); again != c {
		t.Fatal("same name+labels returned a different counter")
	}
	// A different label value is a different series.
	if other := r.Counter("test_ops_total", "ops", L("kind", "b")); other == c || other.Value() != 0 {
		t.Fatal("distinct labels shared a series")
	}

	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Dec()
	if g.Value() != 6 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

// A subsystem owns its metrics and the registry shows them: the published
// series and the owner's own read are one value.
func TestPublishShowsOwnedMetrics(t *testing.T) {
	var owner struct {
		ops   Counter
		depth Gauge
		nanos Counter
	}
	lat := NewHistogram([]float64{1, 2})
	r := NewRegistry()
	r.PublishCounter("own_ops_total", "ops", &owner.ops, L("kind", "a"))
	r.PublishGauge("own_depth", "depth", &owner.depth)
	r.PublishHistogram("own_latency_seconds", "latency", lat)
	r.CounterFunc("own_busy_seconds_total", "busy",
		func() float64 { return float64(owner.nanos.Value()) / 1e9 })

	owner.ops.Add(3)
	owner.depth.Set(7)
	owner.nanos.Add(1_500_000_000)
	lat.Observe(1.5)

	snap := r.Snapshot()
	if v := snap.familyByName("own_ops_total").Series[0].Value; v != 3 {
		t.Fatalf("published counter = %v", v)
	}
	if v := snap.familyByName("own_depth").Series[0].Value; v != 7 {
		t.Fatalf("published gauge = %v", v)
	}
	if hs := snap.familyByName("own_latency_seconds").Series[0]; hs.Count != 1 || hs.BucketCounts[1] != 1 {
		t.Fatalf("published histogram = %+v", hs)
	}
	busy := snap.familyByName("own_busy_seconds_total")
	if busy.Kind != KindCounter || busy.Series[0].Value != 1.5 {
		t.Fatalf("callback counter = %+v", busy)
	}
	// Get-or-create on a published name hands back the owner's metric.
	if r.Counter("own_ops_total", "ops", L("kind", "a")) != &owner.ops {
		t.Fatal("get-or-create did not return the published counter")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	var own Counter
	r.PublishCounter("xp_total", "", &own)
	r.CounterFunc("xf_total", "", func() float64 { return 1 })
	h := r.Histogram("xh", "", []float64{1, 2})
	r.GaugeFunc("xg", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if got := r.Summary(); got != "" {
		t.Fatalf("nil registry summary = %q", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, %v", sb.String(), err)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	fam := snap.Families[0]
	ser := &fam.Series[0]
	// Buckets: (<=1)=1, (<=2)=2, (<=4)=1, +Inf=1.
	want := []int64{1, 2, 1, 1}
	for i, n := range want {
		if ser.BucketCounts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, ser.BucketCounts[i], n, ser.BucketCounts)
		}
	}
	// Median: rank 2.5 lands in the (1,2] bucket.
	if q := fam.Quantile(ser, 0.5); q <= 1 || q > 2 {
		t.Fatalf("p50 = %v", q)
	}
	// Extreme quantile lands in +Inf: reported as the last finite bound.
	if q := fam.Quantile(ser, 0.99); q != 4 {
		t.Fatalf("p99 = %v", q)
	}
	empty := SeriesSnapshot{}
	if !math.IsNaN(fam.Quantile(&empty, 0.5)) {
		t.Fatal("quantile of empty histogram should be NaN")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("mq_reqs_total", "requests served", L("verb", "query")).Add(3)
	r.Gauge("mq_depth", "queue depth").Set(2)
	r.GaugeFunc("mq_live", "live value", func() float64 { return 1.5 })
	h := r.Histogram("mq_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP mq_reqs_total requests served",
		"# TYPE mq_reqs_total counter",
		`mq_reqs_total{verb="query"} 3`,
		"# TYPE mq_depth gauge",
		"mq_depth 2",
		"mq_live 1.5",
		"# TYPE mq_latency_seconds histogram",
		`mq_latency_seconds_bucket{le="0.1"} 1`,
		`mq_latency_seconds_bucket{le="1"} 2`,
		`mq_latency_seconds_bucket{le="+Inf"} 3`,
		"mq_latency_seconds_sum 5.55",
		"mq_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "mq_depth") > strings.Index(out, "mq_reqs_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestSnapshotMerge(t *testing.T) {
	build := func(n int64) *Registry {
		r := NewRegistry()
		r.Counter("c_total", "").Add(n)
		r.Gauge("g", "").Set(n)
		h := r.Histogram("h", "", []float64{1})
		h.Observe(float64(n))
		return r
	}
	a := build(1).Snapshot()
	b := build(10).Snapshot()
	a.Merge(b)

	if v := a.familyByName("c_total").Series[0].Value; v != 11 {
		t.Fatalf("merged counter = %v", v)
	}
	if v := a.familyByName("g").Series[0].Value; v != 10 {
		t.Fatalf("merged gauge = %v (gauges take the newer value)", v)
	}
	hs := a.familyByName("h").Series[0]
	if hs.Count != 2 || hs.Sum != 11 {
		t.Fatalf("merged histogram count=%d sum=%v", hs.Count, hs.Sum)
	}
	// 1 falls in the <=1 bucket, 10 in +Inf.
	if hs.BucketCounts[0] != 1 || hs.BucketCounts[1] != 1 {
		t.Fatalf("merged buckets = %v", hs.BucketCounts)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter name should panic")
		}
	}()
	r.Gauge("dup", "")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	h := r.Histogram("ch", "", []float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 2))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "", L("k", "v")).Add(2)
	h := r.Histogram("s_lat", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	out := r.Summary()
	if !strings.Contains(out, `s_total{k="v"}  2`) && !strings.Contains(out, `s_total{k="v"}`) {
		t.Fatalf("summary missing counter:\n%s", out)
	}
	if !strings.Contains(out, "count=2") || !strings.Contains(out, "mean=2.75") {
		t.Fatalf("summary missing histogram stats:\n%s", out)
	}
}
