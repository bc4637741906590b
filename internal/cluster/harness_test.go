package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mqsched"
	"mqsched/internal/geom"
	"mqsched/internal/netproto"
	"mqsched/internal/trace"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

func startTestHarness(t *testing.T, backends int, rc Config) *Harness {
	t.Helper()
	h, err := StartHarness(HarnessConfig{
		Backends: backends,
		Slides: []mqsched.Slide{
			{Name: "s1", Width: 65536, Height: 65536},
			{Name: "s2", Width: 65536, Height: 65536},
		},
		System: mqsched.Config{
			Policy: "cf", Threads: 2, TimeScale: 0.0001,
			TraceSpans: true,
		},
		Router: rc,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestHarnessWireCompat drives an unmodified netproto.Client against the
// router exactly as it would a single mqserver: queries answer with
// oracle-correct pixels, repeats reuse, PING identifies the router, and
// METRICS / Chrome TRACE come back cluster-wide.
func TestHarnessWireCompat(t *testing.T) {
	h := startTestHarness(t, 2, Config{})
	c := netproto.NewClient(h.Addr, 0)
	defer c.Close()

	w := geom.R(4096, 4096, 5120, 5120)
	req := &netproto.Request{Slide: "s1", X0: w.X0, Y0: w.Y0, X1: w.X1, Y1: w.Y1, Zoom: 4, Op: "subsample"}
	var last *netproto.Response
	for i := 0; i < 2; i++ {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		last = resp
	}
	want := vm.RenderOracle(vm.NewMeta("s1", w, 4, vm.Subsample))
	if len(last.Pixels) != len(want) {
		t.Fatalf("pixel payload %d, want %d", len(last.Pixels), len(want))
	}
	for i := range want {
		if last.Pixels[i] != want[i] {
			t.Fatalf("pixel byte %d differs from the oracle", i)
		}
	}
	// Affinity sent both queries to the same backend, so the repeat reuses.
	if last.ReusedFrac != 1 {
		t.Fatalf("repeat reuse = %v, want 1 (affinity broken?)", last.ReusedFrac)
	}

	ping, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if ping.Role != "router" || ping.Version == "" {
		t.Fatalf("ping = %+v", ping)
	}

	// Server-side errors pass through untouched.
	resp, err := c.Do(&netproto.Request{Slide: "nope", X1: 8, Y1: 8, Zoom: 1, Op: "subsample"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("unknown slide accepted by the cluster")
	}

	// Spread queries across datasets so both backends see work, then check
	// the aggregated views.
	for i := int64(0); i < 8; i++ {
		for _, ds := range []string{"s1", "s2"} {
			q := &netproto.Request{Slide: ds, X0: i * 8192, Y0: 0, X1: i*8192 + 1024, Y1: 1024,
				Zoom: 4, Op: "subsample", OmitPixels: true}
			if resp, err := c.Do(q); err != nil || resp.Err != "" {
				t.Fatalf("query %d/%s: %v %q", i, ds, err, resp.Err)
			}
		}
	}
	mresp, err := c.Do(&netproto.Request{Verb: netproto.VerbMetrics})
	if err != nil || mresp.Err != "" {
		t.Fatalf("METRICS: %v %q", err, mresp.Err)
	}
	if text := promText(t, mresp); !strings.Contains(text, "mqsched_server_submitted_total") ||
		!strings.Contains(text, "mqrouter_routed_total") {
		t.Fatalf("cluster metrics missing server or router families:\n%.400s", text)
	}

	tresp, err := c.Do(&netproto.Request{Verb: netproto.VerbTrace})
	if err != nil || tresp.Err != "" {
		t.Fatalf("TRACE: %v %q", err, tresp.Err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(tresp.TraceJSON, &ct); err != nil {
		t.Fatal(err)
	}
	pids := map[int64]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "M" {
			pids[e.Pid] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("cluster trace should span 2 backend processes, got pids %v", pids)
	}
	// The document crossed two hops as a raw payload; mqviz must still load it.
	col, err := traceviz.Load("cluster", bytes.NewReader(tresp.TraceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Queries) == 0 {
		t.Fatal("traceviz reconstructs no query from the cluster trace")
	}

	st := h.Router.Stats()
	if st.Routed < 18 {
		t.Fatalf("router stats lost queries: %+v", st)
	}
}

// TestDefaultHarnessSumsBackends: backends built from a zero System config
// publish their counters, so cluster METRICS is their sum. Before the
// registry was unconditional the router skipped such backends ("metrics
// disabled there") and the cluster totals were absent.
func TestDefaultHarnessSumsBackends(t *testing.T) {
	h, err := StartHarness(HarnessConfig{
		Backends: 2,
		Slides: []mqsched.Slide{
			{Name: "s1", Width: 65536, Height: 65536},
			{Name: "s2", Width: 65536, Height: 65536},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := netproto.NewClient(h.Addr, 0)
	defer c.Close()

	const n = 8
	for i := int64(0); i < n; i++ {
		q := &netproto.Request{Slide: []string{"s1", "s2"}[i%2], X0: i * 8192, Y0: 0, X1: i*8192 + 256, Y1: 256,
			Zoom: 4, Op: "subsample", OmitPixels: true}
		if resp, err := c.Do(q); err != nil || resp.Err != "" {
			t.Fatalf("query %d: %v %q", i, err, resp.Err)
		}
	}
	resp, err := c.Do(&netproto.Request{Verb: netproto.VerbMetrics})
	if err != nil || resp.Err != "" {
		t.Fatalf("METRICS: %v %q", err, resp.Err)
	}
	if completed := resp.MetricsSnap.Value("mqsched_server_completed_total"); completed != n {
		t.Fatalf("cluster mqsched_server_completed_total = %v, want %d", completed, n)
	}
}

// TestHarnessRoutingModes checks dataset routing on a live cluster: a cell
// as large as the 65536² slides pins a whole dataset to one backend
// regardless of geometry.
func TestHarnessRoutingModes(t *testing.T) {
	h := startTestHarness(t, 4, Config{CellSize: 65536})
	c := netproto.NewClient(h.Addr, 0)
	defer c.Close()
	// Under dataset routing, far-apart windows of one dataset land on one
	// backend: total served queries concentrate there.
	for i := int64(0); i < 6; i++ {
		q := &netproto.Request{Slide: "s1", X0: i * 10000, Y0: 0, X1: i*10000 + 512, Y1: 512,
			Zoom: 4, Op: "subsample", OmitPixels: true}
		if resp, err := c.Do(q); err != nil || resp.Err != "" {
			t.Fatalf("query %d: %v %q", i, err, resp.Err)
		}
	}
	st := h.Router.Stats()
	busy := 0
	for _, b := range st.Backends {
		if b.Routed > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("dataset routing spread one dataset over %d backends: %+v", busy, st.Backends)
	}
}
