package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var a, b Counter
	a.Inc()
	a.Add(4)
	if a.Value() != 5 {
		t.Fatalf("counter = %d", a.Value())
	}
	// A different label value is a different series.
	r := NewRegistry()
	r.PublishCounter("test_ops_total", "ops", &a, L("kind", "a"))
	r.PublishCounter("test_ops_total", "ops", &b, L("kind", "b"))
	snap := r.Snapshot()
	if fam := snap.familyByName("test_ops_total"); len(fam.Series) != 2 {
		t.Fatalf("distinct labels shared a series: %+v", fam.Series)
	}

	var g Gauge
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
	// Publishing over an existing series replaces what it shows.
	var other Counter
	r.PublishCounter("own_ops_total", "ops", &other, L("kind", "a"))
	snap = r.Snapshot()
	if v := snap.familyByName("own_ops_total").Series[0].Value; v != 0 {
		t.Fatalf("republished counter = %v, want the new owner's 0", v)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	var own Counter
	r.PublishCounter("xp_total", "", &own)
	r.PublishHistogram("xh", "", NewHistogram([]float64{1, 2}))
	r.CounterFunc("xf_total", "", func() float64 { return 1 })
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
	h := NewHistogram([]float64{1, 2, 4})
	r.PublishHistogram("test_latency_seconds", "latency", h)
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
	var (
		reqs  Counter
		depth Gauge
		h     = NewHistogram([]float64{0.1, 1})
	)
	r := NewRegistry()
	r.PublishCounter("mq_reqs_total", "requests served", &reqs, L("verb", "query"))
	r.PublishGauge("mq_depth", "queue depth", &depth)
	r.GaugeFunc("mq_live", "live value", func() float64 { return 1.5 })
	r.PublishHistogram("mq_latency_seconds", "latency", h)
	reqs.Add(3)
	depth.Set(2)
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
		var (
			c Counter
			g Gauge
			h = NewHistogram([]float64{1})
		)
		c.Add(n)
		g.Set(n)
		h.Observe(float64(n))
		r := NewRegistry()
		r.PublishCounter("c_total", "", &c)
		r.PublishGauge("g", "", &g)
		r.PublishHistogram("h", "", h)
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
	r.PublishCounter("dup", "", new(Counter))
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter name should panic")
		}
	}()
	r.PublishGauge("dup", "", new(Gauge))
}

func TestConcurrentUpdates(t *testing.T) {
	var c Counter
	h := NewHistogram([]float64{0.5})
	r := NewRegistry()
	r.PublishCounter("cc_total", "", &c)
	r.PublishHistogram("ch", "", h)
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
	var c Counter
	c.Add(2)
	h := NewHistogram([]float64{1, 10})
	r := NewRegistry()
	r.PublishCounter("s_total", "", &c, L("k", "v"))
	r.PublishHistogram("s_lat", "", h)
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
