package load

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
	"mqsched/internal/vm"
)

// recorder is a fake server for the closed loop: it records every query by
// connection, counts queries in flight, and publishes the two output-byte
// counters the runner scrapes (30 reused + 70 computed bytes per query).
type recorder struct {
	reg      *metrics.Registry
	reused   metrics.Counter
	computed metrics.Counter
	// first, when set, holds the first query of every connection until that
	// many connections have one in flight: clients that did not run side by
	// side would never get past it.
	first int
	// refuse answers this query with a server error.
	refuse vm.Meta

	mu       sync.Mutex
	cond     *sync.Cond
	byConn   map[int64][]vm.Meta
	arrived  map[int64][]time.Time // per connection: when each query came in
	answered map[int64][]time.Time // and when its answer was handed back
	inflight int
	peak     int
	waiting  int
}

func newRecorder() *recorder {
	r := &recorder{
		reg:      metrics.NewRegistry(),
		byConn:   map[int64][]vm.Meta{},
		arrived:  map[int64][]time.Time{},
		answered: map[int64][]time.Time{},
	}
	r.cond = sync.NewCond(&r.mu)
	r.reg.PublishCounter("mqsched_server_reused_output_bytes_total", "", &r.reused)
	r.reg.PublishCounter("mqsched_server_computed_output_bytes_total", "", &r.computed)
	return r
}

func (r *recorder) Answer(req *netproto.Request, from netproto.ConnInfo) *netproto.Response {
	if req.Verb == netproto.VerbMetrics {
		snap := r.reg.Snapshot()
		return &netproto.Response{MetricsSnap: &snap}
	}
	op, _ := vm.ParseOp(req.Op)
	m := vm.Meta{DS: req.Slide, Rect: geom.R(req.X0, req.Y0, req.X1, req.Y1), Zoom: req.Zoom, Op: op}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.byConn[from.ConnID] = append(r.byConn[from.ConnID], m)
	r.arrived[from.ConnID] = append(r.arrived[from.ConnID], time.Now())
	r.inflight++
	if r.inflight > r.peak {
		r.peak = r.inflight
	}
	if len(r.byConn[from.ConnID]) == 1 && r.first > 0 {
		r.waiting++
		r.cond.Broadcast()
		for r.waiting < r.first {
			r.cond.Wait()
		}
	}
	r.inflight--
	r.answered[from.ConnID] = append(r.answered[from.ConnID], time.Now())
	if m == r.refuse {
		return &netproto.Response{Err: "refused"}
	}
	r.reused.Add(30)
	r.computed.Add(70)
	return &netproto.Response{Width: 1, Height: 1, ReusedFrac: 0.25}
}

// sequences returns the recorded per-connection query lists.
func (r *recorder) sequences() [][]vm.Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]vm.Meta
	for _, seq := range r.byConn {
		out = append(out, seq)
	}
	return out
}

// paperClients is the stream `mqload -clients` replays, over the live test
// table, and each client's list of queries in it.
func paperClients(clients, queries int) ([]Item, [][]vm.Meta) {
	stream := Clients(GenConfig{
		Pattern: Browse, Users: clients, Queries: queries, OutputSide: 64, Op: vm.Subsample, Seed: 7,
	}, testTable4k())
	lists := make([][]vm.Meta, clients)
	for _, it := range stream {
		lists[it.User] = append(lists[it.User], it.Meta.(vm.Meta))
	}
	return stream, lists
}

// matchClients pairs every recorded connection with the one client whose
// list starts with what the connection carried, and fails when a connection
// carries anything else or two connections carry the same client.
func matchClients(t *testing.T, seqs, clients [][]vm.Meta) map[int]int {
	t.Helper()
	lens := map[int]int{}
	for _, seq := range seqs {
		found := -1
		for c, list := range clients {
			if len(seq) <= len(list) && reflect.DeepEqual(seq, list[:len(seq)]) {
				found = c
				break
			}
		}
		if found < 0 {
			t.Fatalf("a connection carried %v, which is no client's list in order", seq)
		}
		if _, dup := lens[found]; dup {
			t.Fatalf("client %d was served over two connections", found)
		}
		lens[found] = len(seq)
	}
	if len(lens) != len(clients) {
		t.Fatalf("%d connections carried queries for %d clients", len(lens), len(clients))
	}
	return lens
}

// TestRunClosedReplaysClientLists pins the closed loop's stream: each
// connection carries exactly one client's list, in order;
// the users run side by side but never with two queries of one user in
// flight; the summary accounts for every query; and every record carries the
// stream's own seq, so no two share one.
func TestRunClosedReplaysClientLists(t *testing.T) {
	const clients, queries = 4, 5
	stream, lists := paperClients(clients, queries)
	rec := newRecorder()
	rec.first = clients
	addr := startFake(t, rec)

	s, done, err := Run(RunnerConfig{Addrs: []string{addr}}, stream, Closed(0))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, d := range done {
		if seen[d.Seq] {
			t.Errorf("seq %d is on two records", d.Seq)
		}
		seen[d.Seq] = true
		if d.Seq >= len(stream) || stream[d.Seq] != d.Item {
			t.Errorf("record seq %d user %d is not an item of the stream", d.Seq, d.User)
		}
	}
	if len(seen) != len(stream) {
		t.Errorf("%d records for a stream of %d", len(seen), len(stream))
	}
	for c, n := range matchClients(t, rec.sequences(), lists) {
		if n != queries {
			t.Errorf("client %d's connection carried %d of %d queries", c, n, queries)
		}
	}
	// Every connection is a serial request/response stream, so one client on
	// one connection has one query in flight; all of them together reach
	// exactly the client count (the handler held the first round to see it).
	if rec.peak != clients {
		t.Errorf("peak in flight %d, want the %d clients", rec.peak, clients)
	}
	total := clients * queries
	if s.Queries != total || s.Measured != total || s.Errors != 0 || s.Dropped != 0 {
		t.Errorf("accounting: %+v, want %d answered and measured", s, total)
	}
	if s.AvgOverlap != 0.25 {
		t.Errorf("mean reuse %v, want the handler's 0.25", s.AvgOverlap)
	}
	// The before/after scrape reads the handler's counters from its snapshot.
	if s.ReusedBytesFrac != 0.3 {
		t.Errorf("server reused fraction %v, want 30 of every 100 bytes", s.ReusedBytesFrac)
	}
}

// TestRunClosedThinkTime: a client waits at least the think time between an
// answer and its next query, measured at the server.
func TestRunClosedThinkTime(t *testing.T) {
	const think = 20 * time.Millisecond
	stream, _ := paperClients(2, 3)
	rec := newRecorder()
	addr := startFake(t, rec)
	if _, _, err := Run(RunnerConfig{Addrs: []string{addr}}, stream, Closed(think)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(RunnerConfig{Addrs: []string{addr}}, stream, Closed(-think)); err == nil {
		t.Error("a negative think time was accepted")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	gaps := 0
	for conn, in := range rec.arrived {
		for q := 1; q < len(in); q++ {
			gaps++
			if gap := in[q].Sub(rec.answered[conn][q-1]); gap < think {
				t.Errorf("connection %d: query %d came %v after the previous answer, think time is %v", conn, q, gap, think)
			}
		}
	}
	if gaps != 2*2 {
		t.Fatalf("saw %d gaps between queries, want 4", gaps)
	}
}

// TestRunClosedFailingClientStopsAlone: a client whose query is refused
// issues nothing further and is counted once in Errors, the rest of its list
// in Dropped; the others finish.
func TestRunClosedFailingClientStopsAlone(t *testing.T) {
	const clients, queries = 3, 4
	stream, lists := paperClients(clients, queries)
	rec := newRecorder()
	rec.refuse = lists[1][1]
	addr := startFake(t, rec)

	s, done, err := Run(RunnerConfig{Addrs: []string{addr}}, stream, Closed(0))
	if err != nil {
		t.Fatal(err)
	}
	lens := matchClients(t, rec.sequences(), lists)
	if lens[1] != 2 {
		t.Errorf("the refused client sent %d queries, want it to stop after its second", lens[1])
	}
	if lens[0] != queries || lens[2] != queries {
		t.Errorf("the other clients sent %d and %d of %d queries", lens[0], lens[2], queries)
	}
	want := clients*queries - (queries - 1)
	if s.Errors != 1 || s.Queries != want || s.Dropped != queries-2 || len(done) != clients*queries {
		t.Errorf("accounting: %d errors, %d answered, %d dropped, %d records; want 1, %d, %d, %d",
			s.Errors, s.Queries, s.Dropped, len(done), want, queries-2, clients*queries)
	}
}
