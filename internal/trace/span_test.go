package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// manualClock is a settable runtime clock for tests.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration { return c.now }

func TestSpanParentChildLinkage(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})

	root := tr.StartRoot(7, "server", "query", Str("strategy", "cf"))
	clk.now = 1 * time.Millisecond
	wait := root.Child("sched", "wait")
	clk.now = 2 * time.Millisecond
	wait.Finish(F64("rank", 1.5))
	read := root.Child("pagespace", "read", I64("page", 3))
	clk.now = 5 * time.Millisecond
	disk := read.Child("disk", "read", I64("spindle", 2))
	clk.now = 8 * time.Millisecond
	disk.Finish()
	read.Finish(Str("outcome", "miss"))
	clk.now = 10 * time.Millisecond
	root.Finish(Bool("cached", true))

	tr.mu.Lock()
	spans := tr.queryTreeLocked(7)
	tr.mu.Unlock()
	if len(spans) != 4 {
		t.Fatalf("queryTreeLocked len = %d, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Subsystem+"/"+s.Op] = s
		if s.QueryID != 7 {
			t.Errorf("span %s/%s QueryID = %d, want 7", s.Subsystem, s.Op, s.QueryID)
		}
	}
	rootSpan := byName["server/query"]
	if rootSpan.Parent != 0 {
		t.Errorf("root Parent = %d, want 0", rootSpan.Parent)
	}
	if got := byName["sched/wait"].Parent; got != rootSpan.ID {
		t.Errorf("wait Parent = %d, want root %d", got, rootSpan.ID)
	}
	if got := byName["pagespace/read"].Parent; got != rootSpan.ID {
		t.Errorf("pagespace Parent = %d, want root %d", got, rootSpan.ID)
	}
	if got := byName["disk/read"].Parent; got != byName["pagespace/read"].ID {
		t.Errorf("disk Parent = %d, want pagespace %d", got, byName["pagespace/read"].ID)
	}
	if d := rootSpan.Duration(); d != 10*time.Millisecond {
		t.Errorf("root duration = %v, want 10ms", d)
	}
	// queryTreeLocked sorts by start time: root first (started at 0).
	if spans[0].Op != "query" {
		t.Errorf("first span = %s/%s, want server/query", spans[0].Subsystem, spans[0].Op)
	}

	tree := FormatTree(spans)
	for _, want := range []string{"server/query", "  sched/wait", "  pagespace/read", "    disk/read", "strategy=cf", "spindle=2", "cached=true"} {
		if !strings.Contains(tree, want) {
			t.Errorf("FormatTree missing %q:\n%s", want, tree)
		}
	}
}

func TestRingEvictionOrder(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{Capacity: 4})
	for i := 1; i <= 6; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		tr.StartRoot(int64(i), "server", "query").Finish()
	}
	if got := uint64(tr.Len()) + tr.Dropped(); got != 6 {
		t.Errorf("Len + Dropped = %d, want 6", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("Len = %d, want 4", len(spans))
	}
	// Oldest two (queries 1 and 2) were overwritten; survivors oldest-first.
	for i, want := range []int64{3, 4, 5, 6} {
		if spans[i].QueryID != want {
			t.Errorf("spans[%d].QueryID = %d, want %d", i, spans[i].QueryID, want)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.queryTreeLocked(1) != nil {
		t.Error("evicted query 1 still has spans")
	}
}

func TestChromeJSONRoundTrip(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})
	root := tr.StartRoot(9, "server", "query", Str("strategy", "fifo"))
	clk.now = 1500 * time.Microsecond
	child := root.Child("disk", "read", I64("spindle", 1), Bool("sequential", true), F64("frac", 0.5))
	clk.now = 2500 * time.Microsecond
	child.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeInfo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	var x, m int
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "X":
			x++
			if e.Pid != chromePid || e.Tid != 9 {
				t.Errorf("event %q pid/tid = %d/%d, want %d/9", e.Name, e.Pid, e.Tid, chromePid)
			}
			if e.Name == "disk/read" {
				if e.Ts != 1500 || e.Dur != 1000 {
					t.Errorf("disk/read ts/dur = %v/%v µs, want 1500/1000", e.Ts, e.Dur)
				}
				if e.Cat != "disk" {
					t.Errorf("disk/read cat = %q", e.Cat)
				}
				if e.Args["spindle"] != float64(1) || e.Args["sequential"] != true || e.Args["frac"] != 0.5 {
					t.Errorf("disk/read args = %v", e.Args)
				}
				if e.Args["parent_id"] == nil {
					t.Error("disk/read missing parent_id")
				}
			}
		case "M":
			m++
			switch e.Name {
			case "thread_name":
				if e.Args["name"] != "q9" {
					t.Errorf("thread_name args = %v", e.Args)
				}
			case ChromeInfoEvent:
				if e.Args["dropped"] != float64(0) {
					t.Errorf("trace_info args = %v", e.Args)
				}
			default:
				t.Errorf("metadata event name = %q", e.Name)
			}
		}
	}
	if x != 2 || m != 2 {
		t.Errorf("got %d X events and %d M events, want 2 and 2 (thread_name + trace_info)", x, m)
	}

	// A nil tracer still writes a valid (empty) trace.
	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteChromeInfo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("nil tracer trace invalid: %v", err)
	}
	if ct.TraceEvents == nil {
		t.Error("nil tracer trace has null traceEvents (want [])")
	}
}

// TestSlowLogBoundedBySpans: forty slow queries of 600 spans each would
// hold 24,000 spans, half again the ring's 16,384. The log keeps the newest
// 27 trees (16,200 spans) and drops the rest, oldest first.
func TestSlowLogBoundedBySpans(t *testing.T) {
	const queries, tree = 40, 600
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{SlowThreshold: time.Millisecond})
	for q := int64(1); q <= queries; q++ {
		root := tr.StartRoot(q, "server", "query")
		for i := 1; i < tree; i++ {
			root.Child("pagespace", "read").Finish()
		}
		clk.now += 2 * time.Millisecond
		root.Finish()
	}
	entries := tr.SlowEntries(0)
	spans := 0
	for i, e := range entries {
		if len(e.Tree) != tree {
			t.Fatalf("entry q%d holds %d spans, want %d", e.QueryID, len(e.Tree), tree)
		}
		if want := int64(queries - len(entries) + 1 + i); e.QueryID != want {
			t.Fatalf("entry %d is q%d, want q%d: the newest entries, oldest first", i, e.QueryID, want)
		}
		spans += len(e.Tree)
	}
	capacity := TracerOptions{}.withDefaults().Capacity
	if want := capacity / tree; len(entries) != want || spans > capacity {
		t.Fatalf("the log keeps %d trees of %d spans (%d spans), want %d within the ring's %d",
			len(entries), tree, spans, want, capacity)
	}
}

func TestSlowLogFixedThreshold(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{SlowThreshold: 10 * time.Millisecond})

	fast := tr.StartRoot(1, "server", "query")
	clk.now = 5 * time.Millisecond
	fast.Finish()
	if got := tr.SlowEntries(0); len(got) != 0 {
		t.Fatalf("fast query logged as slow: %+v", got)
	}

	slow := tr.StartRoot(2, "server", "query")
	w := slow.Child("sched", "wait")
	clk.now = 12 * time.Millisecond
	w.Finish()
	clk.now = 20 * time.Millisecond
	slow.Finish()

	entries := tr.SlowEntries(0)
	if len(entries) != 1 {
		t.Fatalf("SlowEntries len = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.QueryID != 2 || e.Response != 15*time.Millisecond || e.Threshold != 10*time.Millisecond {
		t.Errorf("entry = %+v", e)
	}
	if len(e.Tree) != 2 {
		t.Errorf("tree has %d spans, want 2 (root + wait)", len(e.Tree))
	}
	if !strings.Contains(e.Format(), "slow query q2") {
		t.Errorf("Format = %q", e.Format())
	}
	// Since-seq polling: nothing newer than the last entry.
	if got := tr.SlowEntries(e.Seq); len(got) != 0 {
		t.Errorf("SlowEntries(%d) = %+v, want empty", e.Seq, got)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{Capacity: 128, SlowThreshold: time.Nanosecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartRoot(int64(g*1000+i), "server", "query", Str("strategy", "cf"))
				c := root.Child("pagespace", "read", I64("page", int64(i)))
				c.Annotate(Str("outcome", "hit"))
				c.Finish()
				root.Finish()
				tr.Spans()
				tr.SlowEntries(0)
			}
		}(g)
	}
	wg.Wait()
	if got := uint64(tr.Len()) + tr.Dropped(); got != 8*50*2 {
		t.Errorf("Len + Dropped = %d, want %d", got, 8*50*2)
	}
	if got := tr.Len(); got != 128 {
		t.Errorf("Len = %d, want capacity 128", got)
	}
}

func TestNilTracerPathAllocationFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.StartRoot(1, "server", "query", Str("strategy", "cf"), I64("n", 3))
		child := root.Child("pagespace", "read", I64("page", 7))
		child.Annotate(Str("outcome", "hit"))
		child.Finish(I64("bytes", 65536))
		root.Finish(Bool("cached", true), F64("reused_frac", 0.5))
	})
	if allocs != 0 {
		t.Errorf("nil-tracer instrumentation allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.StartRoot(1, "server", "query", Str("strategy", "cf"))
		c := root.Child("disk", "read", I64("spindle", 1))
		c.Finish(I64("bytes", 65536), Bool("sequential", true))
		root.Finish(F64("reused_frac", 0.5))
	}
}

func BenchmarkTracerSpan(b *testing.B) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.StartRoot(int64(i), "server", "query", Str("strategy", "cf"))
		c := root.Child("disk", "read", I64("spindle", 1))
		c.Finish(I64("bytes", 65536), Bool("sequential", true))
		root.Finish(F64("reused_frac", 0.5))
	}
}
