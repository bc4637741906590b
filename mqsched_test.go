package mqsched

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
	"mqsched/internal/vol"
)

func TestSimulatedFacade(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 4096, Height: 4096})
	sys, err := New(Config{Mode: Simulated, Policy: "cnbf", Threads: 2}, table)
	if err != nil {
		t.Fatal(err)
	}
	var first, second *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := NewVMQuery("s1", R(0, 0, 1024, 1024), 4, Subsample)
		tk, err := sys.Submit(q)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		first = tk.Wait(ctx)
		tk2, _ := sys.Submit(q)
		second = tk2.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || second == nil {
		t.Fatal("missing results")
	}
	if second.ReusedFrac != 1 {
		t.Fatalf("second query reuse = %v", second.ReusedFrac)
	}
	st := sys.Stats()
	if st.Server.Completed != 2 || st.Disk.Reads == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRealFacadeProducesPixels(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 1024, Height: 1024})
	sys, err := New(Config{Mode: Real, Policy: "fifo", Threads: 2, TimeScale: 0.0001}, table)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := NewVMQuery("s1", R(0, 0, 512, 512), 2, Average)
		tk, _ := sys.Submit(q)
		res = tk.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blob.Data == nil {
		t.Fatal("real mode should produce pixel data")
	}
	want := vm.RenderOracle(res.Meta.(VMQuery))
	if !bytes.Equal(res.Blob.Data, want) {
		t.Fatal("output differs from pixel oracle")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512})
	if _, err := New(Config{Policy: "wizard"}, table); err == nil {
		t.Fatal("expected error")
	}
}

func TestDisabledCaching(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 2048, Height: 2048})
	sys, err := New(Config{Mode: Simulated, Policy: "sjf", DSBudget: -1}, table)
	if err != nil {
		t.Fatal(err)
	}
	var second *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := NewVMQuery("s1", R(0, 0, 512, 512), 1, Subsample)
		tk, _ := sys.Submit(q)
		tk.Wait(ctx)
		tk2, _ := sys.Submit(q)
		second = tk2.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedFrac != 0 {
		t.Fatalf("reuse %v with caching disabled", second.ReusedFrac)
	}
}

func TestTraceFacade(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 1024, Height: 1024})
	sys, err := New(Config{Mode: Simulated, Policy: "fifo", TraceSpans: true}, table)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RunWith(func(ctx Ctx) {
		tk, _ := sys.Submit(NewVMQuery("s1", R(0, 0, 512, 512), 2, Subsample))
		tk.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The span trees carry the query's lifecycle: the schedule renders from
	// them with one row for the one query.
	spans := sys.Spans().Spans()
	if len(spans) == 0 {
		t.Fatal("span tracer empty")
	}
	if g := trace.Gantt(spans, 60); !strings.Contains(g, "\nq1 ") {
		t.Fatalf("gantt has no row for the query:\n%s", g)
	}
	if s := trace.Summary(spans); s != "completed=1 canceled=0 blocked=0" {
		t.Fatalf("summary = %q", s)
	}
	// Untraced systems return nil.
	sys2, _ := New(Config{Mode: Simulated}, NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512}))
	if sys2.Spans() != nil {
		t.Fatal("Spans should be nil when disabled")
	}
}

// TestTraceRingGauges: a capture that outgrows its ring shows in the
// registry while it runs (mqsched_trace_dropped_spans_total,
// mqsched_trace_spans), and an untraced system has neither series.
func TestTraceRingGauges(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 1024, Height: 1024})
	exposition := func(cfg Config) string {
		sys, err := New(cfg, table)
		if err != nil {
			t.Fatal(err)
		}
		err = sys.RunWith(func(ctx Ctx) {
			tk, _ := sys.Submit(NewVMQuery("s1", R(0, 0, 512, 512), 2, Subsample))
			tk.Wait(ctx)
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := exposition(Config{TraceSpans: true, TraceCapacity: 4})
	if !strings.Contains(out, "\nmqsched_trace_spans 4\n") {
		t.Errorf("a full 4-span ring should show mqsched_trace_spans 4:\n%s", out)
	}
	if !strings.Contains(out, "\nmqsched_trace_dropped_spans_total ") ||
		strings.Contains(out, "\nmqsched_trace_dropped_spans_total 0\n") {
		t.Errorf("the query records more than 4 spans, yet no drop is shown:\n%s", out)
	}
	if out := exposition(Config{}); strings.Contains(out, "mqsched_trace_") {
		t.Errorf("untraced system exposes trace series:\n%s", out)
	}
}

// TestStartForgetsFinishedClients: a long-lived server starts one client
// process per wire query (netproto.SystemHandler.answerQuery); the
// bookkeeping Start keeps must be bounded by the processes still running, not
// by how many ever ran.
func TestStartForgetsFinishedClients(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512})
	sys, err := New(Config{Mode: Real, Threads: 1, TimeScale: 1e-9}, table)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		done := make(chan struct{})
		sys.Start("cycle", func(Ctx) { close(done) })
		<-done
	}
	// Every process has closed its channel; give the last few time to retire.
	deadline := time.Now().Add(5 * time.Second)
	for liveBookkeeping(sys) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := liveBookkeeping(sys); n != 0 {
		t.Fatalf("%d start-and-finish cycles left %d entries of client bookkeeping, want 0 with nothing live", cycles, n)
	}
	// Run's contract holds afterwards: it waits for a client started now,
	// then closes the server and returns.
	ran := false
	if err := sys.RunWith(func(Ctx) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Run returned before its client ran")
	}
	if _, err := sys.Submit(NewVMQuery("s1", R(0, 0, 64, 64), 1, Subsample)); err == nil {
		t.Fatal("server still open after Run")
	}
}

// liveBookkeeping is what Start retains per client.
func liveBookkeeping(s *System) int {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.live
}

func TestNewWithGeneratorVolumeApp(t *testing.T) {
	app := vol.New()
	dims := vol.Dims{Width: 512, Height: 512, Depth: 4}
	layout := app.Add("v", dims)
	table := dataset.NewTable(layout)
	app.Finish(table)

	sys, err := NewWithGenerator(Config{
		Mode: Real, Policy: "muf", Threads: 2, App: app, TimeScale: 0.0001,
	}, table, app.Generator())
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	err = sys.RunWith(func(ctx Ctx) {
		q := vol.NewMeta("v", dims, R(0, 0, 512, 512), 0, 4, 2, vol.MIP)
		tk, _ := sys.Submit(q)
		res = tk.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := vol.RenderOracle(res.Meta.(vol.Meta), dims)
	if !bytes.Equal(res.Blob.Data, want) {
		t.Fatal("volume result differs from oracle through the facade")
	}
}

func TestAlignRectFacade(t *testing.T) {
	got := AlignRect(R(3, 3, 61, 61), 8, R(0, 0, 1024, 1024))
	if got.X0%8 != 0 || got.X1%8 != 0 {
		t.Fatalf("AlignRect = %v", got)
	}
}

// TestParseSlides: the one -slides parser. mqserver's copy used to accept a
// zero-sized slide that mqload's refused.
func TestParseSlides(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Slide // nil: an error
	}{
		{"a:100x200", []Slide{{"a", 100, 200}}},
		{"a:100x200, b:300x400", []Slide{{"a", 100, 200}, {"b", 300, 400}}},
		{"", nil},
		{"a", nil},
		{":100x200", nil},
		{"a:100", nil},
		{"a:xx200", nil},
		{"a:100xzz", nil},
		{"a:100x200,b", nil},
		{"a:0x4096", nil},
		{"a:4096x0", nil},
		{"a:-1x4096", nil},
	} {
		got, err := ParseSlides(tc.in)
		if (err != nil) != (tc.want == nil) || len(got) != len(tc.want) {
			t.Errorf("ParseSlides(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseSlides(%q)[%d] = %+v, want %+v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestBuildInfoGauge(t *testing.T) {
	bi := BuildInfo()
	for _, k := range []string{"version", "go", "strategies"} {
		if bi[k] == "" {
			t.Errorf("BuildInfo()[%q] empty", k)
		}
	}
	if !strings.Contains(bi["strategies"], "cnbf") {
		t.Errorf("strategies = %q, want cnbf present", bi["strategies"])
	}

	table := NewSlideTable(Slide{Name: "s1", Width: 4096, Height: 4096})
	sys, err := New(Config{Mode: Simulated, Policy: "fifo", Threads: 1}, table)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mqsched_build_info{") {
		t.Fatalf("mqsched_build_info missing from exposition:\n%s", out)
	}
	for _, frag := range []string{`go="` + bi["go"] + `"`, `strategies="` + bi["strategies"] + `"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("exposition missing label %s", frag)
		}
	}
}

func TestUnknownDSPolicyRejected(t *testing.T) {
	table := NewSlideTable(Slide{Name: "s1", Width: 512, Height: 512})
	if _, err := New(Config{Policy: "cnbf", DSPolicy: "mru"}, table); err == nil {
		t.Fatal("expected error for unknown cache policy")
	}
	// With the data store disabled the policy string is irrelevant.
	if _, err := New(Config{Policy: "cnbf", DSPolicy: "mru", DSBudget: -1}, table); err != nil {
		t.Fatalf("DSPolicy should be ignored without a data store: %v", err)
	}
	// The cost policy assembles.
	if _, err := New(Config{Mode: Simulated, Policy: "cnbf", DSPolicy: "cost"}, table); err != nil {
		t.Fatal(err)
	}
}
