package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
	"mqsched/internal/trace"
)

// fakeHandler adapts a function to netproto.Handler.
type fakeHandler func(req *netproto.Request) *netproto.Response

func (f fakeHandler) Answer(req *netproto.Request, _ netproto.ConnInfo) *netproto.Response {
	return f(req)
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

// okBackend answers every query with a tiny fixed image and every probe
// honestly.
func okBackend(marker float64) fakeHandler {
	return func(req *netproto.Request) *netproto.Response {
		switch req.Verb {
		case "", netproto.VerbQuery:
			return &netproto.Response{Width: 1, Height: 1, ReusedFrac: marker}
		case netproto.VerbPing:
			return &netproto.Response{Ping: &netproto.PingInfo{Role: "server"}}
		case netproto.VerbMetrics:
			return &netproto.Response{MetricsSnap: &metrics.Snapshot{}}
		}
		return &netproto.Response{Err: fmt.Sprintf("netproto: unknown verb %q", req.Verb)}
	}
}

// killerBackend accepts connections, reads one request, and slams the
// connection shut without answering — a backend dying mid-query.
func killerBackend(t *testing.T) string {
	t.Helper()
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
				c := netproto.NewConn(nc)
				c.ReadRequest()
				nc.Close()
			}()
		}
	}()
	return l.Addr().String()
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// routeTo scans spatial cells until the router's affine target for ds is
// the wanted address, returning the window. Lets failure tests aim queries
// at a specific backend.
func routeTo(t *testing.T, r *Router, ds, want string) geom.Rect {
	t.Helper()
	for i := int64(0); i < 256; i++ {
		w := geom.R(i*8192, 0, i*8192+512, 512)
		addr, _, err := r.Route(ds, w)
		if err != nil {
			t.Fatal(err)
		}
		if addr == want {
			return w
		}
	}
	t.Fatalf("no cell routes to %s", want)
	return geom.Rect{}
}

func TestAffineKey(t *testing.T) {
	// Overlapping pan steps inside one 4096-cell share a key.
	a := affineKey(4096, "s1", geom.R(0, 0, 512, 512))
	b := affineKey(4096, "s1", geom.R(256, 256, 768, 768))
	if a != b {
		t.Fatalf("same-cell windows keyed apart: %q vs %q", a, b)
	}
	// A far-away window keys differently; a different dataset always does.
	if c := affineKey(4096, "s1", geom.R(40960, 40960, 41472, 41472)); c == a {
		t.Fatal("distant cell shares the key")
	}
	if d := affineKey(4096, "s2", geom.R(0, 0, 512, 512)); d == a {
		t.Fatal("datasets share the key")
	}
	// The key is the dataset and the cell, spelled as the ring has always
	// hashed it: a change here moves every session to another backend.
	if a != "s1\x000,0" {
		t.Fatalf("key %q, want %q", a, "s1\x000,0")
	}
	// A slide-sized cell ignores geometry: dataset routing.
	if affineKey(131072, "s1", geom.R(0, 0, 512, 512)) !=
		affineKey(131072, "s1", geom.R(90000, 120000, 90512, 120512)) {
		t.Fatal("a slide-sized cell should ignore the window")
	}
}

// TestRingConsistency pins the consistent part of consistent hashing:
// marking one backend dead only remaps keys that backend owned.
func TestRingConsistency(t *testing.T) {
	r := newRing(4, 64)
	all := func(int) bool { return true }
	without3 := func(i int) bool { return i != 3 }
	moved, kept := 0, 0
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("key%d", k)
		before, _ := r.owner(key, all)
		after, _ := r.owner(key, without3)
		switch {
		case before == 3:
			if after == 3 {
				t.Fatal("dead backend still owns a key")
			}
			moved++
		case after != before:
			t.Fatalf("key %q moved %d -> %d though %d stayed alive", key, before, after, before)
		default:
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingBalance checks virtual nodes spread keys reasonably evenly.
func TestRingBalance(t *testing.T) {
	const n, keys = 4, 4000
	r := newRing(n, 64)
	counts := make([]int, n)
	for k := 0; k < keys; k++ {
		idx, ok := r.owner(fmt.Sprintf("s1\x00%d,%d", k%63, k/63), func(int) bool { return true })
		if !ok {
			t.Fatal("no owner")
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c < keys/n/3 {
			t.Fatalf("backend %d starved: %v", i, counts)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty config should fail")
	}
	if err := (Config{Backends: []string{"a:1", "a:1"}}).Validate(); err == nil {
		t.Fatal("duplicate backends should fail")
	}
	if err := (Config{Backends: []string{"a:1", ""}}).Validate(); err == nil {
		t.Fatal("empty backend address should fail")
	}
	if err := (Config{Backends: []string{"a:1", "b:2"}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillLeastLoaded forces the affine target over the spill depth and
// expects the query to land on the least-loaded healthy backend instead.
func TestSpillLeastLoaded(t *testing.T) {
	r := newTestRouter(t, Config{
		Backends:       []string{"a:1", "b:2", "c:3"},
		SpillDepth:     2,
		HealthInterval: -1,
	})
	w := geom.R(0, 0, 512, 512)
	addr, spilled, err := r.Route("s1", w)
	if err != nil || spilled {
		t.Fatalf("unloaded route: %s spilled=%v err=%v", addr, spilled, err)
	}
	var target *backend
	for _, b := range r.backends {
		if b.addr == addr {
			target = b
		}
	}
	target.inflight.Store(5) // over depth 2
	alt, spilled, err := r.Route("s1", w)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled || alt == addr {
		t.Fatalf("expected spill off %s, got %s spilled=%v", addr, alt, spilled)
	}
	// With spilling disabled the saturated target keeps the query.
	r2 := newTestRouter(t, Config{Backends: []string{"a:1", "b:2", "c:3"}, SpillDepth: -1, HealthInterval: -1})
	for _, b := range r2.backends {
		if b.addr == addr {
			b.inflight.Store(100)
		}
	}
	if got, spilled, _ := r2.Route("s1", w); spilled || got != addr {
		t.Fatalf("SpillDepth<0 should pin the affine target, got %s spilled=%v", got, spilled)
	}
}

// TestBackendKilledMidQuery: the routed backend drops the connection under
// the query. The client gets an error for that query, the router marks the
// backend down, and the next query re-routes to a survivor.
func TestBackendKilledMidQuery(t *testing.T) {
	killer := killerBackend(t)
	ok := startFake(t, okBackend(0.5))
	r := newTestRouter(t, Config{Backends: []string{killer, ok}, HealthInterval: -1, DialTimeout: time.Second})

	w := routeTo(t, r, "s1", killer)
	req := &netproto.Request{Slide: "s1", X0: w.X0, Y0: w.Y0, X1: w.X1, Y1: w.Y1, Zoom: 1, Op: "subsample"}
	resp := r.Answer(req, netproto.ConnInfo{})
	if resp.Err == "" || !strings.Contains(resp.Err, "cluster: backend") {
		t.Fatalf("expected a backend error, got %+v", resp)
	}
	st := r.Stats()
	for _, b := range st.Backends {
		if b.Addr == killer && (b.Healthy || b.Markdowns != 1) {
			t.Fatalf("killer backend not marked down: %+v", b)
		}
	}
	// Same affine key now re-routes to the survivor and succeeds.
	resp = r.Answer(req, netproto.ConnInfo{})
	if resp.Err != "" || resp.ReusedFrac != 0.5 {
		t.Fatalf("re-routed query failed: %+v", resp)
	}
}

// TestAllBackendsDown: every backend refused the dial. Queries surface
// errors until all are marked down, after which routing returns the typed
// ErrNoBackends.
func TestAllBackendsDown(t *testing.T) {
	r := newTestRouter(t, Config{
		Backends:       []string{deadAddr(t), deadAddr(t)},
		HealthInterval: -1,
		DialTimeout:    200 * time.Millisecond,
	})
	req := &netproto.Request{Slide: "s1", X1: 512, Y1: 512, Zoom: 1, Op: "subsample"}
	for i := 0; i < 2; i++ {
		if resp := r.Answer(req, netproto.ConnInfo{}); resp.Err == "" {
			t.Fatalf("query %d against dead backends succeeded", i)
		}
	}
	if _, _, err := r.Route("s1", geom.R(0, 0, 512, 512)); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("want ErrNoBackends, got %v", err)
	}
	if resp := r.Answer(req, netproto.ConnInfo{}); !strings.Contains(resp.Err, ErrNoBackends.Error()) {
		t.Fatalf("wire response should carry ErrNoBackends, got %q", resp.Err)
	}
}

// TestDrainOnClose: Close refuses new work but waits for in-flight queries
// to complete before shutting the pools.
func TestDrainOnClose(t *testing.T) {
	release := make(chan struct{})
	slow := startFake(t, fakeHandler(func(req *netproto.Request) *netproto.Response {
		if req.Verb == "" || req.Verb == netproto.VerbQuery {
			<-release
		}
		return &netproto.Response{Width: 7}
	}))
	r, err := New(Config{Backends: []string{slow}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}

	req := &netproto.Request{Slide: "s1", X1: 512, Y1: 512, Zoom: 1, Op: "subsample"}
	inflight := make(chan *netproto.Response, 1)
	go func() { inflight <- r.Answer(req, netproto.ConnInfo{}) }()
	// Wait until the query is on the backend, then close concurrently.
	deadline := time.Now().Add(2 * time.Second)
	for r.Stats().Routed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	// Close must not return while the query is still in flight.
	select {
	case <-closed:
		t.Fatal("Close returned before the in-flight query completed")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	resp := <-inflight
	if resp.Err != "" || resp.Width != 7 {
		t.Fatalf("drained query failed: %+v", resp)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after drain")
	}
	// New work after Close is refused with the typed error.
	if resp := r.Answer(req, netproto.ConnInfo{}); !strings.Contains(resp.Err, ErrClosed.Error()) {
		t.Fatalf("post-Close answer = %+v, want ErrClosed", resp)
	}
}

// TestHealthMarkdownRecovery: the active checker marks a dead backend down
// (with backoff) and marks it up again when it returns on the same address.
func TestHealthMarkdownRecovery(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	serve := func(l net.Listener) {
		go netproto.ServeHandler(l, okBackend(0), func(string, ...any) {})
	}
	serve(l)

	r := newTestRouter(t, Config{
		Backends:       []string{addr},
		HealthInterval: 20 * time.Millisecond,
		MaxBackoff:     40 * time.Millisecond,
		DialTimeout:    200 * time.Millisecond,
	})
	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st := r.Stats(); st.Backends[0].Healthy == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend never became healthy=%v: %+v", want, r.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealthy(true)
	l.Close()
	waitHealthy(false)

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	serve(l2)
	waitHealthy(true)
	st := r.Stats()
	if st.Backends[0].Markdowns < 1 || st.Backends[0].Markups < 1 {
		t.Fatalf("state machine never cycled: %+v", st.Backends[0])
	}
}

// TestHealthProbeIsPing: the probe is PING and nothing else. A backend that
// answers it with its identity is up; one that is reachable but refuses the
// verb is down, whatever else it would have answered.
func TestHealthProbeIsPing(t *testing.T) {
	refuses := startFake(t, fakeHandler(func(req *netproto.Request) *netproto.Response {
		if req.Verb == netproto.VerbPing {
			return &netproto.Response{Err: fmt.Sprintf("netproto: unknown verb %q", req.Verb)}
		}
		return &netproto.Response{MetricsSnap: &metrics.Snapshot{}}
	}))
	r := newTestRouter(t, Config{Backends: []string{startFake(t, okBackend(0)), refuses}, HealthInterval: -1})
	if !r.backends[0].probeOnce() {
		t.Error("a backend answering PING failed the probe")
	}
	if r.backends[1].probeOnce() {
		t.Error("a backend refusing PING passed the probe")
	}
}

// promText renders a METRICS answer's snapshot as Prometheus text, as
// mqrouter's /metrics handler does.
func promText(t *testing.T, resp *netproto.Response) string {
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

// TestMetricsAggregation: the router's METRICS answer merges backend
// snapshots (counters sum) with its own registry.
func TestMetricsAggregation(t *testing.T) {
	mkBackend := func(v int64) fakeHandler {
		var c metrics.Counter
		c.Add(v)
		reg := metrics.NewRegistry()
		reg.PublishCounter("test_queries_total", "help", &c)
		return func(req *netproto.Request) *netproto.Response {
			if req.Verb != netproto.VerbMetrics {
				return &netproto.Response{Err: "query refused"}
			}
			snap := reg.Snapshot()
			return &netproto.Response{MetricsSnap: &snap}
		}
	}
	a := startFake(t, mkBackend(3))
	b := startFake(t, mkBackend(4))
	r := newTestRouter(t, Config{Backends: []string{a, b}, HealthInterval: -1})

	resp := r.Answer(&netproto.Request{Verb: netproto.VerbMetrics}, netproto.ConnInfo{})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	text := promText(t, resp)
	if !strings.Contains(text, "test_queries_total 7") {
		t.Fatalf("counters did not sum across backends:\n%s", text)
	}
	if !strings.Contains(text, "mqrouter_spills_total") {
		t.Fatalf("router's own registry missing from the merge:\n%s", text)
	}
	// A backend that answers without a snapshot costs its share of the
	// numbers, never the response.
	noSnap := startFake(t, fakeHandler(func(req *netproto.Request) *netproto.Response {
		return &netproto.Response{}
	}))
	r2 := newTestRouter(t, Config{Backends: []string{a, noSnap}, HealthInterval: -1})
	resp = r2.Answer(&netproto.Request{Verb: netproto.VerbMetrics}, netproto.ConnInfo{})
	if text := promText(t, resp); resp.Err != "" || !strings.Contains(text, "test_queries_total 3") {
		t.Fatalf("the answering backend's numbers were lost: %q\n%s", resp.Err, text)
	}
}

// TestTraceChromeAggregation: the router splices backend Chrome exports into
// one document with per-backend pids, process names, and non-colliding
// query/span IDs.
func TestTraceChromeAggregation(t *testing.T) {
	mkBackend := func() fakeHandler {
		clock := time.Now()
		tr := trace.NewTracer(func() time.Duration { return time.Since(clock) }, trace.TracerOptions{})
		root := tr.StartRoot(1, "server", "query")
		child := root.Child("disk", "read")
		child.Finish()
		root.Finish()
		return func(req *netproto.Request) *netproto.Response {
			if req.Verb != netproto.VerbTrace || req.SlowLog {
				return &netproto.Response{Err: "only the span ring here"}
			}
			var buf strings.Builder
			tr.WriteChromeInfo(&buf, nil)
			return &netproto.Response{TraceJSON: []byte(buf.String())}
		}
	}
	a := startFake(t, mkBackend())
	b := startFake(t, mkBackend())
	r := newTestRouter(t, Config{Backends: []string{a, b}, HealthInterval: -1})

	resp := r.Answer(&netproto.Request{Verb: netproto.VerbTrace}, netproto.ConnInfo{})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(resp.TraceJSON, &ct); err != nil {
		t.Fatal(err)
	}
	pids := map[int64]bool{}
	processNames := 0
	for _, e := range ct.TraceEvents {
		pids[e.Pid] = true
		if e.Name == "process_name" {
			processNames++
		}
	}
	if !pids[1] || !pids[2] || processNames != 2 {
		t.Fatalf("backends not split into processes: pids=%v names=%d", pids, processNames)
	}
	// The merged document must still parse as one valid collection holding
	// both backends' spans with intact (non-colliding) parent links.
	col, err := trace.ReadChrome(strings.NewReader(string(resp.TraceJSON)))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Spans) != 4 {
		t.Fatalf("want 4 spans (2 per backend), got %d", len(col.Spans))
	}
	queries := map[int64]bool{}
	for _, s := range col.Spans {
		queries[s.QueryID] = true
	}
	if len(queries) != 2 {
		t.Fatalf("backend query IDs collided: %v", queries)
	}
}

// slowLogBackend is a fake backend whose slow-query log is fed by the test:
// add records one slow query, and a TRACE request with SlowLog set is
// answered with the log's trees, written as a server writes them.
func slowLogBackend() (h fakeHandler, add func(q int64)) {
	var clock time.Duration
	tr := trace.NewTracer(func() time.Duration { return clock }, trace.TracerOptions{SlowThreshold: time.Millisecond})
	add = func(q int64) {
		root := tr.StartRoot(q, "server", "query")
		child := root.Child("disk", "read")
		clock += 2 * time.Millisecond
		child.Finish()
		root.Finish()
	}
	h = func(req *netproto.Request) *netproto.Response {
		if req.Verb != netproto.VerbTrace || !req.SlowLog {
			return &netproto.Response{Err: "only the slow-query log here"}
		}
		var spans []trace.Span
		for _, e := range tr.SlowEntries(0) {
			spans = append(spans, e.Tree...)
		}
		var buf strings.Builder
		if err := trace.WriteChromeExport(&buf, trace.ChromeExport{Spans: spans}); err != nil {
			return &netproto.Response{Err: err.Error()}
		}
		return &netproto.Response{TraceJSON: []byte(buf.String())}
	}
	return h, add
}

// TestTraceSlowLogKeepsLaggingBackend: a slow-log poll through the router
// carries every backend's whole log. Backend 1's log lags backend 0's (two
// slow queries against five) and gains three between two polls; all three
// are in the second answer, and mqclient's rule (print the queries that were
// not in the previous answer) prints every query exactly once.
func TestTraceSlowLogKeepsLaggingBackend(t *testing.T) {
	ha, addA := slowLogBackend()
	hb, addB := slowLogBackend()
	for q := int64(1); q <= 5; q++ {
		addA(q)
	}
	addB(1)
	addB(2)
	r := newTestRouter(t, Config{Backends: []string{startFake(t, ha), startFake(t, hb)}, HealthInterval: -1})

	poll := func() map[int64]bool {
		t.Helper()
		resp := r.Answer(&netproto.Request{Verb: netproto.VerbTrace, SlowLog: true}, netproto.ConnInfo{})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		col, err := trace.ReadChrome(strings.NewReader(string(resp.TraceJSON)))
		if err != nil {
			t.Fatal(err)
		}
		held := map[int64]bool{}
		for _, s := range col.Spans {
			held[s.QueryID] = true
		}
		return held
	}
	first := poll()
	for q := int64(3); q <= 5; q++ {
		addB(q)
	}
	second := poll()

	printed := map[int64]int{}
	for q := range first {
		printed[q]++
	}
	for q := range second {
		if !first[q] {
			printed[q]++
		}
	}
	for q := int64(3); q <= 5; q++ {
		if !second[q+tidStride] {
			t.Errorf("the lagging backend's slow query %d is missing from the second answer", q)
		}
	}
	for b := int64(0); b < 2; b++ {
		for q := int64(1); q <= 5; q++ {
			if n := printed[q+b*tidStride]; n != 1 {
				t.Errorf("backend %d's slow query %d printed %d times, want once", b, q, n)
			}
		}
	}
	if len(printed) != 10 {
		t.Errorf("printed %d queries, want the 10 slow ones: %v", len(printed), printed)
	}
}

// TestRouterConcurrentAnswers hammers Answer from many goroutines while the
// health checker runs — the -race exercise for the routing hot path.
func TestRouterConcurrentAnswers(t *testing.T) {
	a := startFake(t, okBackend(0.1))
	b := startFake(t, okBackend(0.2))
	r := newTestRouter(t, Config{
		Backends:       []string{a, b},
		HealthInterval: 10 * time.Millisecond,
		SpillDepth:     2,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				x := int64((g*25 + i) % 7 * 4096)
				req := &netproto.Request{Slide: "s1", X0: x, Y0: 0, X1: x + 512, Y1: 512, Zoom: 1, Op: "subsample"}
				if resp := r.Answer(req, netproto.ConnInfo{}); resp.Err != "" {
					t.Errorf("query failed: %s", resp.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Routed != 200 {
		t.Fatalf("routed %d of 200", st.Routed)
	}
}
