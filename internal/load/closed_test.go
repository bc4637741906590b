package load

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"mqsched/internal/driver"
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
	reused   *metrics.Counter
	computed *metrics.Counter
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
	r.reused = r.reg.Counter("mqsched_server_reused_output_bytes_total", "")
	r.computed = r.reg.Counter("mqsched_server_computed_output_bytes_total", "")
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

// paperClients is the stream `mqload -clients` replays: driver.Generate's
// lists over the live test table.
func paperClients(clients, queries int) [][]vm.Meta {
	return driver.Generate(driver.WorkloadConfig{
		Clients: clients, QueriesPerClient: queries, OutputSide: 64, Op: vm.Subsample, Seed: 7,
	}, testTable4k())
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
// connection carries exactly one user's driver.Generate list, in order;
// the users run side by side but never with two queries of one user in
// flight; the result accounts for every query; and every -record line
// carries the stream's own seq, so no two share one.
func TestRunClosedReplaysClientLists(t *testing.T) {
	const clients, queries = 4, 5
	lists := paperClients(clients, queries)
	stream := FromClients(lists)
	rec := newRecorder()
	rec.first = clients
	addr := startFake(t, rec)

	var records bytes.Buffer
	res, err := Run(RunnerConfig{Addr: addr, Record: &records}, stream, Closed(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	dec := json.NewDecoder(&records)
	for dec.More() {
		var line struct{ Seq, User int }
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if seen[line.Seq] {
			t.Errorf("seq %d is on two record lines", line.Seq)
		}
		seen[line.Seq] = true
		if line.Seq >= len(stream) || stream[line.Seq].User != line.User {
			t.Errorf("record line seq %d user %d is not an item of the stream", line.Seq, line.User)
		}
	}
	if len(seen) != len(stream) {
		t.Errorf("%d record lines for a stream of %d", len(seen), len(stream))
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
	if res.Sent != total || res.Completed != total || res.Measured != total || res.Errors != 0 || res.Dropped != 0 {
		t.Errorf("accounting: %+v, want %d sent, completed and measured", res, total)
	}
	if res.Latency.Count() != total {
		t.Errorf("sketch holds %d samples, want %d", res.Latency.Count(), total)
	}
	if res.MeanReuse != 0.25 {
		t.Errorf("mean reuse %v, want the handler's 0.25", res.MeanReuse)
	}
	// The before/after scrape reads the handler's counters from its snapshot.
	if res.ServerReusedFrac != 0.3 {
		t.Errorf("server reused fraction %v, want 30 of every 100 bytes", res.ServerReusedFrac)
	}
}

// TestRunClosedThinkTime: a client waits at least the think time between an
// answer and its next query, measured at the server.
func TestRunClosedThinkTime(t *testing.T) {
	const think = 20 * time.Millisecond
	lists := paperClients(2, 3)
	rec := newRecorder()
	addr := startFake(t, rec)
	if _, err := Run(RunnerConfig{Addr: addr}, FromClients(lists), Closed(think), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunnerConfig{Addr: addr}, FromClients(lists), Closed(-think), 0); err == nil {
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
// issues nothing further and is counted once in Errors; the others finish.
func TestRunClosedFailingClientStopsAlone(t *testing.T) {
	const clients, queries = 3, 4
	lists := paperClients(clients, queries)
	rec := newRecorder()
	rec.refuse = lists[1][1]
	addr := startFake(t, rec)

	res, err := Run(RunnerConfig{Addr: addr}, FromClients(lists), Closed(0), 0)
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
	if res.Errors != 1 || res.Completed != want || res.Sent != want+1 {
		t.Errorf("accounting: %d errors, %d completed, %d sent; want 1, %d, %d", res.Errors, res.Completed, res.Sent, want, want+1)
	}
}
