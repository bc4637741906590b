package load

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/netproto"
	"mqsched/internal/vm"
	"mqsched/internal/vol"
)

// testTable4k mirrors the live test server's slide table.
func testTable4k() *dataset.Table {
	return dataset.NewTable(
		vm.NewSlide("slide1", 4096, 4096),
		vm.NewSlide("slide2", 4096, 4096),
		vm.NewSlide("slide3", 4096, 4096),
	)
}

// liveServer starts a real-mode system serving netproto on a loopback port.
func liveServer(t *testing.T) string {
	t.Helper()
	sys, err := mqsched.New(mqsched.Config{
		Mode:      mqsched.Real,
		Policy:    "cnbf",
		Threads:   4,
		TimeScale: 0.0005,
	}, mqsched.NewSlideTable(
		mqsched.Slide{Name: "slide1", Width: 4096, Height: 4096},
		mqsched.Slide{Name: "slide2", Width: 4096, Height: 4096},
		mqsched.Slide{Name: "slide3", Width: 4096, Height: 4096},
	))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go netproto.Serve(l, sys, func(string, ...any) {})
	return l.Addr().String()
}

// TestRunnerOpenLoop drives a short generated stream against a live server
// and checks the phase accounting: everything sent, measured subset
// excludes warmup, latency sketch populated, records written.
func TestRunnerOpenLoop(t *testing.T) {
	addr := liveServer(t)
	table := testTable4k()
	cfg := testGenConfig()
	cfg.OutputSide = 64
	const rate = 200.0
	items := Build(cfg, table, ArrivalConfig{Process: Poisson, Rate: rate, Seed: 1}, 120)

	var records bytes.Buffer
	warmup := 100 * time.Millisecond
	res, err := Run(RunnerConfig{
		Addr: addr, Workers: 8, Warmup: warmup, Record: &records,
	}, items, Open, rate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != len(items) || res.Dropped != 0 {
		t.Fatalf("sent %d dropped %d of %d", res.Sent, res.Dropped, len(items))
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Completed != len(items) {
		t.Fatalf("completed %d of %d", res.Completed, len(items))
	}
	if res.Measured == 0 || res.Measured >= res.Completed {
		t.Fatalf("measured %d of %d: warmup exclusion broken", res.Measured, res.Completed)
	}
	if res.Latency.Count() != res.Measured {
		t.Fatalf("sketch holds %d samples, measured %d", res.Latency.Count(), res.Measured)
	}
	if p50, p99 := res.Latency.Quantile(50), res.Latency.Quantile(99); !(p50 > 0 && p99 >= p50) {
		t.Fatalf("latency quantiles p50=%v p99=%v", p50, p99)
	}
	if res.AchievedQPS <= 0 {
		t.Fatalf("achieved qps %v", res.AchievedQPS)
	}

	// One JSONL record per completion, warmup flagged, offered stamped.
	lines := strings.Split(strings.TrimSpace(records.String()), "\n")
	if len(lines) != res.Completed {
		t.Fatalf("%d records for %d completions", len(lines), res.Completed)
	}
	warm := 0
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad record %q: %v", ln, err)
		}
		if rec["offered_qps"].(float64) != rate {
			t.Fatalf("record missing offered rate: %q", ln)
		}
		if w, _ := rec["warmup"].(bool); w {
			warm++
		}
	}
	if warm != res.Completed-res.Measured {
		t.Fatalf("%d warmup records, want %d", warm, res.Completed-res.Measured)
	}
}

// TestRunnerUnreachableServer fails fast with a clear error.
func TestRunnerUnreachableServer(t *testing.T) {
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	_, err := Run(RunnerConfig{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond}, items, Open, 10)
	if err == nil || !strings.Contains(err.Error(), "probing") {
		t.Fatalf("want probe error, got %v", err)
	}
}

func TestRunnerConfigValidate(t *testing.T) {
	bad := []RunnerConfig{
		{},
		{Addr: "x", Workers: -1},
		{Addr: "x", Warmup: -time.Second},
		{Addr: "x", RelErr: 2},
		{Addr: "x", QueueCap: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should not validate", cfg)
		}
	}
	if err := (RunnerConfig{Addr: "localhost:9123"}).Validate(); err != nil {
		t.Errorf("defaulted config should validate: %v", err)
	}
}

// fakeHandler adapts a function to netproto.Handler.
type fakeHandler func(req *netproto.Request, from netproto.ConnInfo) *netproto.Response

func (f fakeHandler) Answer(req *netproto.Request, from netproto.ConnInfo) *netproto.Response {
	return f(req, from)
}

// startFake serves h on a loopback listener and returns its address.
func startFake(t *testing.T, h netproto.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go netproto.ServeHandler(l, h, func(string, ...any) {})
	return l.Addr().String()
}

// TestRunnerProbeServerError: a reachable server that answers the health
// probe with an application-level error must fail the phase before any
// queries are sent — previously only transport errors were checked.
func TestRunnerProbeServerError(t *testing.T) {
	addr := startFake(t, fakeHandler(func(*netproto.Request, netproto.ConnInfo) *netproto.Response {
		return &netproto.Response{Err: "server on fire"}
	}))
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	_, err := Run(RunnerConfig{Addr: addr}, items, Open, 10)
	if err == nil || !strings.Contains(err.Error(), "probing") || !strings.Contains(err.Error(), "server on fire") {
		t.Fatalf("want probe failure carrying the server error, got %v", err)
	}
}

// TestRunnerProbeNeedsSnapshot: the reuse counters are read from the METRICS
// snapshot, so a server that answers METRICS with text alone fails the
// pre-flight probe, under either pacing, instead of reporting zero reuse.
func TestRunnerProbeNeedsSnapshot(t *testing.T) {
	var queries atomic.Int64
	addr := startFake(t, fakeHandler(func(req *netproto.Request, _ netproto.ConnInfo) *netproto.Response {
		if req.Verb == netproto.VerbMetrics {
			return &netproto.Response{Metrics: "mqsched_server_reused_output_bytes_total 1\n"}
		}
		queries.Add(1)
		return &netproto.Response{Width: 1, Height: 1}
	}))
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	_, err := Run(RunnerConfig{Addr: addr}, items, Open, 10)
	if err == nil || !strings.Contains(err.Error(), "probing "+addr) || !strings.Contains(err.Error(), "without the snapshot") {
		t.Fatalf("open loop: want a probe failure naming the missing snapshot, got %v", err)
	}
	_, err = Run(RunnerConfig{Addr: addr}, items[:1], Closed(0), 0)
	if err == nil || !strings.Contains(err.Error(), "without the snapshot") {
		t.Fatalf("closed loop: want a probe failure naming the missing snapshot, got %v", err)
	}
	if n := queries.Load(); n != 0 {
		t.Fatalf("%d queries sent despite the failed probe", n)
	}
}

// TestMeasuredWindowClamped: a phase shorter than its warmup reports a zero
// measured window, never a negative one.
func TestMeasuredWindowClamped(t *testing.T) {
	for _, tc := range []struct {
		elapsed, warmup, want time.Duration
	}{
		{10 * time.Second, 2 * time.Second, 8 * time.Second},
		{time.Second, 2 * time.Second, 0},
		{2 * time.Second, 2 * time.Second, 0},
		{time.Second, 0, time.Second},
	} {
		if got := measuredWindow(tc.elapsed, tc.warmup); got != tc.want {
			t.Errorf("measuredWindow(%v, %v) = %v, want %v", tc.elapsed, tc.warmup, got, tc.want)
		}
	}
}

// TestReusedFracDelta: the byte-weighted reuse fraction is the share of
// reused bytes among the output bytes produced between two scrapes.
func TestReusedFracDelta(t *testing.T) {
	before := outputBytes{reused: 100, computed: 900}
	after := outputBytes{reused: 400, computed: 1100}
	// Delta: reused 300 of 500 new output bytes.
	if got := reusedFracDelta(before, after); got != 0.6 {
		t.Fatalf("reusedFracDelta = %v, want 0.6", got)
	}
	// No new bytes: zero, not NaN.
	if got := reusedFracDelta(before, before); got != 0 {
		t.Fatalf("no-delta frac = %v", got)
	}
}

// TestRunnerMultiAddr spreads one stream across two live servers: queries
// round-robin, accounting still adds up, and the reuse scrape aggregates
// both servers' counters.
func TestRunnerMultiAddr(t *testing.T) {
	addrA, addrB := liveServer(t), liveServer(t)
	table := testTable4k()
	cfg := testGenConfig()
	cfg.OutputSide = 64
	const rate = 200.0
	items := Build(cfg, table, ArrivalConfig{Process: Poisson, Rate: rate, Seed: 2}, 80)

	res, err := Run(RunnerConfig{
		Addrs: []string{addrA, addrB}, Workers: 8, Warmup: 50 * time.Millisecond,
	}, items, Open, rate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Completed != len(items) {
		t.Fatalf("completed %d errors %d of %d", res.Completed, res.Errors, len(items))
	}
	// Both servers actually served: each holds a nonzero submitted counter.
	for _, addr := range []string{addrA, addrB} {
		c := netproto.NewClient(addr, time.Second)
		resp, err := c.Do(&netproto.Request{Verb: netproto.VerbMetrics, MetricsSnapshot: true})
		c.Close()
		if err != nil || resp.Err != "" {
			t.Fatalf("scraping %s: %v %q", addr, err, resp.Err)
		}
		if resp.MetricsSnap.Value("mqsched_server_submitted_total") == 0 {
			t.Fatalf("server %s saw no queries: round-robin broken", addr)
		}
	}
}

// TestRunnerAddrsValidate pins the multi-address config contract.
func TestRunnerAddrsValidate(t *testing.T) {
	if err := (RunnerConfig{Addrs: []string{"a:1", "b:2"}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (RunnerConfig{Addr: "a:1", Addrs: []string{"b:2"}}).Validate(); err == nil {
		t.Fatal("Addr and Addrs together should not validate")
	}
	if err := (RunnerConfig{Addrs: []string{"a:1", " "}}).Validate(); err == nil {
		t.Fatal("blank address in Addrs should not validate")
	}
}

// TestRunnerRefusesForeignPredicate: the wire carries VM queries; a stream
// holding anything else is refused before a server is dialled, under either
// pacing.
func TestRunnerRefusesForeignPredicate(t *testing.T) {
	items := Build(testGenConfig(), testTable4k(), ArrivalConfig{Process: Constant, Rate: 10}, 3)
	dims := vol.Dims{Width: 64, Height: 64, Depth: 4}
	items[2].Meta = vol.NewMeta("v", dims, geom.R(0, 0, 64, 64), 0, 4, 2, vol.MIP)
	for _, p := range []Pacing{Open, Closed(0)} {
		_, err := Run(RunnerConfig{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond}, items, p, 0)
		if err == nil || !strings.Contains(err.Error(), "item 2") || strings.Contains(err.Error(), "probing") {
			t.Errorf("%+v: want a refusal naming item 2 before the probe, got %v", p, err)
		}
	}
}
