package netproto

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/geom"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

func TestRequestMeta(t *testing.T) {
	bounds := geom.R(0, 0, 4096, 4096)
	req := &Request{Slide: "s", X0: 3, Y0: 5, X1: 1001, Y1: 1003, Zoom: 4, Op: "average"}
	m, err := req.Meta(bounds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != vm.Average || m.Zoom != 4 {
		t.Fatalf("meta = %+v", m)
	}
	if m.Rect.X0%4 != 0 || m.Rect.X1%4 != 0 {
		t.Fatalf("window not aligned: %v", m.Rect)
	}

	if _, err := (&Request{Slide: "s", X1: 10, Y1: 10, Zoom: 0, Op: "subsample"}).Meta(bounds); err == nil {
		t.Error("zoom 0 accepted")
	}
	if _, err := (&Request{Slide: "s", X1: 10, Y1: 10, Zoom: 1, Op: "sharpen"}).Meta(bounds); err == nil {
		t.Error("bad op accepted")
	}
	if _, err := (&Request{Slide: "s", X0: 9000, Y0: 9000, X1: 9100, Y1: 9100, Zoom: 1, Op: "subsample"}).Meta(bounds); err == nil {
		t.Error("out-of-bounds window accepted")
	}
}

func TestConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	go func() {
		req, err := cb.ReadRequest()
		if err != nil {
			t.Error(err)
			return
		}
		cb.WriteResponse(&Response{Width: req.X1 - req.X0, Height: 7, Pixels: []byte{1, 2, 3}})
	}()

	if err := ca.WriteRequest(&Request{Slide: "s", X1: 42, Y1: 10, Zoom: 2, Op: "subsample"}); err != nil {
		t.Fatal(err)
	}
	resp, err := ca.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Width != 42 || resp.Height != 7 || len(resp.Pixels) != 3 {
		t.Fatalf("resp = %+v", resp)
	}
}

// End-to-end TCP test: a live server answers queries with correct pixels.
func TestServeEndToEnd(t *testing.T) {
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s1", Width: 2048, Height: 2048})
	sys, err := mqsched.New(mqsched.Config{
		Mode: mqsched.Real, Policy: "cf", Threads: 2, TimeScale: 0.0001,
	}, table)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, sys, t.Logf)
	defer l.Close()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewConn(nc)

	// Two identical queries over one connection: the second reuses.
	req := &Request{Slide: "s1", X0: 0, Y0: 0, X1: 1024, Y1: 1024, Zoom: 4, Op: "subsample"}
	var last *Response
	for i := 0; i < 2; i++ {
		if err := c.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
		last, err = c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if last.Err != "" {
			t.Fatal(last.Err)
		}
	}
	if last.Width != 256 || last.Height != 256 {
		t.Fatalf("dims %dx%d", last.Width, last.Height)
	}
	if last.ReusedFrac != 1 {
		t.Fatalf("second query reuse = %v", last.ReusedFrac)
	}
	// Pixels match the oracle.
	want := vm.RenderOracle(vm.NewMeta("s1", geom.R(0, 0, 1024, 1024), 4, vm.Subsample))
	if len(last.Pixels) != len(want) {
		t.Fatalf("pixel payload %d, want %d", len(last.Pixels), len(want))
	}
	for i := range want {
		if last.Pixels[i] != want[i] {
			t.Fatalf("pixel byte %d differs", i)
		}
	}

	// Unknown slide produces a server-side error, not a dead connection.
	if err := c.WriteRequest(&Request{Slide: "nope", X1: 8, Y1: 8, Zoom: 1, Op: "subsample"}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("expected error response for unknown slide")
	}
}

// startServer spins up a Real-mode system behind a TCP listener and returns a
// client connection to it.
func startServer(t *testing.T) *Conn {
	t.Helper()
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s1", Width: 2048, Height: 2048})
	sys, err := mqsched.New(mqsched.Config{
		Mode: mqsched.Real, Policy: "fifo", Threads: 2, TimeScale: 0.0001,
	}, table)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, sys, t.Logf)
	t.Cleanup(func() { l.Close() })

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return NewConn(nc)
}

func roundTrip(t *testing.T, c *Conn, req *Request) *Response {
	t.Helper()
	if err := c.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	resp, err := c.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeBadRequests checks that unknown verbs and malformed queries get an
// error response while the connection stays usable for the next request.
func TestServeBadRequests(t *testing.T) {
	c := startServer(t)

	// Unknown verb: error response, not a dropped connection.
	resp := roundTrip(t, c, &Request{Verb: "BOGUS"})
	if !strings.Contains(resp.Err, "unknown verb") {
		t.Fatalf("unknown verb: err = %q", resp.Err)
	}

	// Malformed queries: zoom 0, bad op, out-of-bounds window.
	for _, bad := range []*Request{
		{Slide: "s1", X1: 8, Y1: 8, Zoom: 0, Op: "subsample"},
		{Slide: "s1", X1: 8, Y1: 8, Zoom: 1, Op: "sharpen"},
		{Slide: "s1", X0: 9000, Y0: 9000, X1: 9100, Y1: 9100, Zoom: 1, Op: "subsample"},
	} {
		if resp := roundTrip(t, c, bad); resp.Err == "" {
			t.Fatalf("malformed request %+v accepted", bad)
		}
	}

	// The same connection still answers a valid query after every failure.
	resp = roundTrip(t, c, &Request{Slide: "s1", X0: 0, Y0: 0, X1: 512, Y1: 512, Zoom: 2, Op: "subsample"})
	if resp.Err != "" {
		t.Fatalf("valid query after errors: %v", resp.Err)
	}
	if resp.Width != 256 || resp.Height != 256 {
		t.Fatalf("dims %dx%d", resp.Width, resp.Height)
	}
}

// promText renders a METRICS answer's snapshot as Prometheus text, as a
// /metrics handler would.
func promText(t *testing.T, resp *Response) string {
	t.Helper()
	if resp.MetricsSnap == nil {
		t.Fatalf("METRICS answered without a snapshot: %q", resp.Err)
	}
	var sb strings.Builder
	if err := resp.MetricsSnap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestServeMetricsVerb checks the METRICS verb returns a registry snapshot
// reflecting work done over the same connection.
func TestServeMetricsVerb(t *testing.T) {
	c := startServer(t)

	resp := roundTrip(t, c, &Request{Slide: "s1", X0: 0, Y0: 0, X1: 512, Y1: 512, Zoom: 2, Op: "subsample", OmitPixels: true})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}

	mr := roundTrip(t, c, &Request{Verb: VerbMetrics})
	if mr.Err != "" {
		t.Fatal(mr.Err)
	}
	text := promText(t, mr)
	for _, want := range []string{
		"# TYPE mqsched_server_submitted_total counter",
		"mqsched_server_submitted_total{strategy=\"FIFO\"} 1",
		"mqsched_datastore_lookups_total",
		"mqsched_pagespace_misses_total",
		"mqsched_sched_queue_depth",
		"mqsched_server_response_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("METRICS payload missing %q", want)
		}
	}
}

// TestDefaultSystemAnswersMetrics: a system built from a zero Config serves
// METRICS. Before the registry was unconditional this answered "metrics not
// enabled on this server".
func TestDefaultSystemAnswersMetrics(t *testing.T) {
	sys, err := mqsched.New(mqsched.Config{}, mqsched.NewSlideTable(mqsched.Slide{Name: "s1", Width: 2048, Height: 2048}))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics() == nil {
		t.Fatal("a default system has no metrics registry")
	}
	resp := NewSystemHandler(sys).Answer(&Request{Verb: VerbMetrics}, ConnInfo{})
	if resp.Err != "" {
		t.Fatalf("METRICS on a default system: %s", resp.Err)
	}
	if text := promText(t, resp); !strings.Contains(text, "mqsched_server_submitted_total") {
		t.Fatalf("METRICS payload lacks mqsched_server_submitted_total:\n%s", text)
	}
}

// TestServeTraceVerb checks the TRACE verb's two documents: with SlowLog set,
// exactly the slow-query log's span trees; without it, the whole span ring,
// the same bytes as Tracer.WriteChromeInfo.
func TestServeTraceVerb(t *testing.T) {
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s1", Width: 2048, Height: 2048})
	sys, err := mqsched.New(mqsched.Config{
		Mode: mqsched.Real, Policy: "fifo", Threads: 2, TimeScale: 0.0001,
		TraceSpans:         true,
		SlowQueryThreshold: time.Nanosecond, // every query is "slow"
	}, table)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, sys, t.Logf)
	t.Cleanup(func() { l.Close() })
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := NewConn(nc)

	resp := roundTrip(t, c, &Request{Slide: "s1", X0: 0, Y0: 0, X1: 512, Y1: 512, Zoom: 2, Op: "subsample", OmitPixels: true})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	tr := sys.Spans()

	// Slow-query log: the query breached the 1ns threshold, and the document
	// holds its tree and nothing else.
	sl := roundTrip(t, c, &Request{Verb: VerbTrace, SlowLog: true})
	if sl.Err != "" {
		t.Fatal(sl.Err)
	}
	var slow []trace.Span
	for _, e := range tr.SlowEntries(0) {
		slow = append(slow, e.Tree...)
	}
	var want bytes.Buffer
	if err := trace.WriteChromeExport(&want, trace.ChromeExport{Spans: slow, Dropped: tr.Dropped(), Info: mqsched.BuildInfo()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sl.TraceJSON, want.Bytes()) {
		t.Errorf("slow-log document is not the slow trees:\n got %s\nwant %s", sl.TraceJSON, want.Bytes())
	}
	col, err := trace.ReadChrome(bytes.NewReader(sl.TraceJSON))
	if err != nil {
		t.Fatalf("slow-log TraceJSON unreadable: %v", err)
	}
	for _, s := range col.Spans {
		if s.QueryID != 1 {
			t.Fatalf("slow-log document holds a span of query %d, only query 1 ran", s.QueryID)
		}
	}
	tree := trace.FormatTree(col.Spans)
	for _, want := range []string{"server/query", "sched/wait", "pagespace/read", "disk/read"} {
		if !strings.Contains(tree, want) {
			t.Errorf("slow tree missing %q:\n%s", want, tree)
		}
	}

	// Chrome dump: the whole ring, byte for byte what the tracer writes,
	// with the build-info header.
	cd := roundTrip(t, c, &Request{Verb: VerbTrace})
	if cd.Err != "" {
		t.Fatal(cd.Err)
	}
	want.Reset()
	if err := tr.WriteChromeInfo(&want, mqsched.BuildInfo()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cd.TraceJSON, want.Bytes()) {
		t.Errorf("ring document differs from Tracer.WriteChromeInfo:\n got %s\nwant %s", cd.TraceJSON, want.Bytes())
	}
	col, err = trace.ReadChrome(bytes.NewReader(cd.TraceJSON))
	if err != nil {
		t.Fatalf("TraceJSON unreadable: %v", err)
	}
	if len(col.Spans) == 0 {
		t.Fatal("Chrome dump carries no spans")
	}
	if !strings.Contains(col.Info["strategies"], "cnbf") {
		t.Errorf("trace_info strategies = %q", col.Info["strategies"])
	}

	// The TraceChromeDump client helper fetches the same document.
	cl := NewClient(l.Addr().String(), 0)
	defer cl.Close()
	data, err := cl.TraceChromeDump()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, cd.TraceJSON) {
		t.Error("client helper dump differs from raw verb response")
	}
}

// TestPingVerb checks the PING health-check verb: a cheap probe answering
// uptime and build identity without touching the scheduler.
func TestPingVerb(t *testing.T) {
	c := startServer(t)
	resp := roundTrip(t, c, &Request{Verb: VerbPing})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	p := resp.Ping
	if p == nil {
		t.Fatal("PING answered without PingInfo")
	}
	if p.Role != "server" || p.Version == "" || p.Go == "" || p.Strategies == "" {
		t.Fatalf("ping info incomplete: %+v", p)
	}
	if p.UptimeMS < 0 {
		t.Fatalf("negative uptime %v", p.UptimeMS)
	}
	// Uptime advances between probes.
	time.Sleep(5 * time.Millisecond)
	again := roundTrip(t, c, &Request{Verb: VerbPing})
	if again.Ping.UptimeMS <= p.UptimeMS {
		t.Fatalf("uptime did not advance: %v -> %v", p.UptimeMS, again.Ping.UptimeMS)
	}
}

// TestPingAgainstOldServer: a peer that speaks the bare gob stream this
// protocol used before it had frames is told so in a sentence, in both
// directions, and dropped. (There is no arm that would talk to it.)
func TestPingAgainstOldServer(t *testing.T) {
	// An old server: reads whatever arrives, answers in bare gob.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, err := nc.Read(make([]byte, 512)); err != nil {
					return
				}
				gob.NewEncoder(nc).Encode(&Response{Ping: &PingInfo{Role: "server", Version: "old"}})
			}()
		}
	}()
	c := NewClient(l.Addr().String(), time.Second)
	defer c.Close()
	if _, err := c.Ping(); err == nil || !strings.Contains(err.Error(), "netproto: not an mqsched frame (") {
		t.Fatalf("Ping against a bare-gob server: err = %v, want \"not an mqsched frame\"", err)
	}

	// An old client against this server: the same sentence in the log, and a
	// closed connection.
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })
	logged := make(chan string, 4) // "connected", then the refusal
	go ServeHandler(sl, canned{&Response{Width: 1, Height: 1}}, func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) })
	nc, err := net.Dial("tcp", sl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := gob.NewEncoder(nc).Encode(&Request{Verb: VerbPing}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("bare-gob client was not dropped: read %d bytes, err %v", n, err)
	}
	for {
		select {
		case line := <-logged:
			if strings.Contains(line, "netproto: not an mqsched frame (") {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the server never logged why it dropped the bare-gob client")
		}
	}
}

// TestEdgeWindowAtOddZoom: a slide side need not be a multiple of the zoom. A
// window on the slide's far edge used to clip to the unaligned bounds and
// reach vm.NewMeta's panic on the connection goroutine, taking the server
// down; it is answered from the zoom-aligned interior of the slide.
func TestEdgeWindowAtOddZoom(t *testing.T) {
	sys, err := mqsched.New(mqsched.Config{Mode: mqsched.Real, Threads: 2, TimeScale: 1e-9},
		mqsched.NewSlideTable(mqsched.Slide{Name: "s", Width: 4096, Height: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	h := NewSystemHandler(sys)
	for _, zoom := range []int64{3, 5, 7} {
		resp := h.Answer(&Request{Slide: "s", X0: 3500, Y0: 3500, X1: 4096, Y1: 4096, Zoom: zoom, Op: "average"}, ConnInfo{ConnID: zoom})
		side := 4096/zoom - 3500/zoom // output pixels between the aligned edges
		if resp.Err != "" || resp.Width != side || resp.Height != side || int64(len(resp.Pixels)) != 3*side*side {
			t.Errorf("zoom %d: Err %q, %dx%d, %d pixel bytes; want %dx%d", zoom, resp.Err, resp.Width, resp.Height, len(resp.Pixels), side, side)
		}
	}
	// Nothing but the partial cell along the edge: an error, not an image.
	if resp := h.Answer(&Request{Slide: "s", X0: 4095, Y0: 4095, X1: 4096, Y1: 4096, Zoom: 3, Op: "subsample"}, ConnInfo{}); resp.Err == "" {
		t.Errorf("a window inside the slide's partial edge cell was answered: %+v", resp)
	}
}

// FuzzRequestMeta: no request, against no bounds, panics; a predicate that
// comes back is non-empty, inside the bounds and aligned to its zoom — what
// vm.NewMeta and everything behind it assume.
func FuzzRequestMeta(f *testing.F) {
	f.Add(int64(3), int64(5), int64(1001), int64(1003), int64(4), "average", int64(0), int64(0), int64(4096), int64(4096))
	f.Add(int64(0), int64(0), int64(4096), int64(4096), int64(3), "subsample", int64(0), int64(0), int64(4096), int64(4096))
	f.Add(int64(-7), int64(-7), int64(9), int64(9), int64(5), "subsample", int64(-3), int64(-3), int64(11), int64(11))
	f.Add(int64(0), int64(0), int64(1), int64(1), int64(0), "sharpen", int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, zoom int64, op string, bx0, by0, bx1, by1 int64) {
		// Coordinates are pixels of a slide: past 2^40 the alignment
		// arithmetic would overflow, which no slide table can reach.
		for _, v := range []int64{x0, y0, x1, y1, zoom, bx0, by0, bx1, by1} {
			if v < -1<<40 || v > 1<<40 {
				t.Skip()
			}
		}
		bounds := geom.R(bx0, by0, bx1, by1)
		m, err := (&Request{Slide: "s", X0: x0, Y0: y0, X1: x1, Y1: y1, Zoom: zoom, Op: op}).Meta(bounds)
		if err != nil {
			return
		}
		r := m.Rect
		if r.Empty() || r.Intersect(bounds) != r {
			t.Fatalf("window %v is empty or leaves bounds %v", r, bounds)
		}
		if m.Zoom != zoom || r.X0%zoom != 0 || r.Y0%zoom != 0 || r.X1%zoom != 0 || r.Y1%zoom != 0 {
			t.Fatalf("window %v is not aligned to zoom %d", r, zoom)
		}
	})
}
