package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestChromeTruncatedMarker: a snapshot taken while a query is mid-flight
// (its root span not yet finished, so absent from the ring) must mark the
// query truncated instead of silently exporting orphan child spans.
func TestChromeTruncatedMarker(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})

	// Query 1 completes fully; query 2 is exported mid-flight.
	root1 := tr.StartRoot(1, SubServer, OpQuery)
	c1 := root1.Child(SubDisk, OpRead)
	clk.now = 10 * time.Microsecond
	c1.Finish()
	root1.Finish()

	root2 := tr.StartRoot(2, SubServer, OpQuery)
	c2 := root2.Child(SubPagespace, OpRead)
	clk.now = 20 * time.Microsecond
	c2.Finish()
	c3 := root2.Child(SubDisk, OpRead)
	clk.now = 30 * time.Microsecond
	c3.Finish()
	// root2 never finishes before the export.

	ct := chromeTraceOf(tr.Spans())
	var markers []ChromeEvent
	for _, e := range ct.TraceEvents {
		if e.Name == ChromeTruncatedEvent {
			markers = append(markers, e)
		}
	}
	if len(markers) != 1 {
		t.Fatalf("got %d truncated markers, want 1 (events: %+v)", len(markers), ct.TraceEvents)
	}
	m := markers[0]
	if m.Tid != 2 {
		t.Errorf("marker tid = %d, want query 2", m.Tid)
	}
	if m.Ph != "i" {
		t.Errorf("marker ph = %q, want instant", m.Ph)
	}
	if got := m.Args["orphan_spans"]; got != int64(2) {
		t.Errorf("orphan_spans = %v (%T), want 2", got, got)
	}
	if m.Ts != 10 {
		t.Errorf("marker ts = %v, want the query's earliest orphan (10µs)", m.Ts)
	}

	// Finish the root: a fresh export must carry no marker.
	root2.Finish()
	ct = chromeTraceOf(tr.Spans())
	for _, e := range ct.TraceEvents {
		if e.Name == ChromeTruncatedEvent {
			t.Fatalf("complete trace still carries a truncated marker: %+v", e)
		}
	}
}

// TestChromeTruncatedAfterEviction: when the ring evicts a parent span while
// children of a concurrent query survive, the export flags the affected
// query. Leaves finish before parents, so the broken link is manufactured by
// interleaving two queries over a 2-slot ring.
func TestChromeTruncatedAfterEviction(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{Capacity: 2})

	rootA := tr.StartRoot(1, SubServer, OpQuery)
	leafA := rootA.Child(SubDisk, OpRead)
	clk.now = 5 * time.Microsecond
	leafA.Finish()
	rootA.Finish() // ring: [leafA, rootA]

	rootB := tr.StartRoot(2, SubServer, OpQuery)
	leafB := rootB.Child(SubDisk, OpRead)
	clk.now = 15 * time.Microsecond
	leafB.Finish()
	rootB.Finish() // ring wrapped: [leafB, rootB]; query 1 evicted entirely

	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeInfo(&buf, map[string]string{"version": "test"}); err != nil {
		t.Fatal(err)
	}
	c, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dropped != 2 {
		t.Errorf("read Dropped = %d, want 2", c.Dropped)
	}
	if c.Info["version"] != "test" {
		t.Errorf("Info = %v, want version=test", c.Info)
	}
	if len(c.Truncated) != 0 {
		t.Errorf("query 2's tree is complete; Truncated = %v", c.Truncated)
	}

	// Now wrap mid-query: query 3's leaf lands, then query 4 floods the
	// ring before query 3's root finishes — the leaf is evicted, and when
	// the root finally lands its children are gone. The tree has a root
	// only; truncation shows up on a snapshot taken while spans were still
	// in flight.
	root3 := tr.StartRoot(3, SubServer, OpQuery)
	leaf3 := root3.Child(SubDisk, OpRead)
	clk.now = 20 * time.Microsecond
	leaf3.Finish()
	mid3 := root3.Child(SubServer, OpCompute)
	inner3 := mid3.Child(SubDisk, OpRead)
	clk.now = 25 * time.Microsecond
	inner3.Finish()
	// Snapshot now: leaf3 and inner3 are in the ring, but neither root3 nor
	// mid3 has finished — both retained spans are orphans.
	ct := chromeTraceOf(tr.Spans())
	found := false
	for _, e := range ct.TraceEvents {
		if e.Name == ChromeTruncatedEvent && e.Tid == 3 {
			found = true
			if e.Args["orphan_spans"] != int64(2) {
				t.Errorf("orphan_spans = %v, want 2", e.Args["orphan_spans"])
			}
		}
	}
	if !found {
		t.Error("mid-query snapshot carries no truncated marker for query 3")
	}
	mid3.Finish()
	root3.Finish()
}

// TestReadChromeRoundTrip: spans written as Chrome JSON read back
// structurally identical — IDs, parents, timestamps, and typed attributes.
func TestReadChromeRoundTrip(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(clk.Now, TracerOptions{})
	root := tr.StartRoot(7, SubServer, OpQuery,
		Str(AttrStrategy, "cnbf"), Str(AttrQuery, "VM[slide1]"))
	clk.now = 100 * time.Microsecond
	child := root.Child(SubDisk, OpRead,
		I64(AttrSpindle, 3), Bool(AttrSequential, true), F64("frac", 0.25))
	clk.now = 350 * time.Microsecond
	child.Finish(I64(AttrBytes, 65536))
	clk.now = 400 * time.Microsecond
	root.Finish(F64(AttrReusedFrac, 0.5))

	want := tr.Spans()
	var buf bytes.Buffer
	if err := tr.WriteChromeInfo(&buf, map[string]string{"go": "go1.22"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	c, err := ReadChrome(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Spans) != len(want) {
		t.Fatalf("read %d spans, want %d", len(c.Spans), len(want))
	}
	byID := map[uint64]Span{}
	for _, s := range c.Spans {
		byID[s.ID] = s
	}
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			t.Fatalf("span %d missing after round trip", w.ID)
		}
		if g.Parent != w.Parent || g.QueryID != w.QueryID ||
			g.Subsystem != w.Subsystem || g.Op != w.Op ||
			g.Start != w.Start || g.End != w.End {
			t.Errorf("span %d: got %+v, want %+v", w.ID, g, w)
		}
	}
	// Typed attrs survive: strings stay strings, ints stay ints, bools
	// stay bools; integral floats may demote to ints (see AttrNum).
	disk := byID[want[0].ID]
	if disk.Op == OpQuery {
		disk = byID[want[1].ID]
	}
	if v, ok := disk.AttrStr("outcome"); ok {
		t.Errorf("unexpected outcome attr %q", v)
	}
	if v, ok := disk.AttrNum(AttrSpindle); !ok || v != 3 {
		t.Errorf("spindle = %v/%v, want 3", v, ok)
	}
	if v, ok := disk.AttrNum(AttrBytes); !ok || v != 65536 {
		t.Errorf("bytes = %v/%v, want 65536", v, ok)
	}
	if a, ok := disk.Attr(AttrSequential); !ok || a.Value() != true {
		t.Errorf("sequential = %v/%v, want true", a.Value(), ok)
	}
	if v, ok := disk.AttrNum("frac"); !ok || v != 0.25 {
		t.Errorf("frac = %v/%v, want 0.25", v, ok)
	}
	if c.Info["go"] != "go1.22" {
		t.Errorf("Info = %v", c.Info)
	}

	// Determinism: reading the same bytes twice yields identical structures.
	c2, err := ReadChrome(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(c.Spans)
	j2, _ := json.Marshal(c2.Spans)
	if !bytes.Equal(j1, j2) {
		t.Error("two reads of the same trace differ")
	}
}

// TestReadChromeForeignTrace: a trace not written by this exporter (no
// span_id args, bare names) still loads with synthetic IDs.
func TestReadChromeForeignTrace(t *testing.T) {
	foreign := `{"traceEvents":[
		{"name":"work","cat":"cpu","ph":"X","ts":10,"dur":5,"pid":1,"tid":42},
		{"name":"idle","ph":"X","ts":20,"dur":1,"pid":1,"tid":42,"args":{"n":3}}
	],"displayTimeUnit":"ms"}`
	c, err := ReadChrome(strings.NewReader(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(c.Spans))
	}
	if c.Spans[0].ID == 0 || c.Spans[1].ID == 0 || c.Spans[0].ID == c.Spans[1].ID {
		t.Errorf("synthetic IDs not unique: %d, %d", c.Spans[0].ID, c.Spans[1].ID)
	}
	if c.Spans[0].Subsystem != "cpu" || c.Spans[0].Op != "work" {
		t.Errorf("category fallback: got %s/%s", c.Spans[0].Subsystem, c.Spans[0].Op)
	}
	if v, ok := c.Spans[1].AttrNum("n"); !ok || v != 3 {
		t.Errorf("foreign arg n = %v/%v", v, ok)
	}
}
