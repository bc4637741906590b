// Package netproto is the wire protocol of the live demo server: gob-framed
// request/response pairs over a persistent TCP connection. It stands in for
// the paper's client protocol between the cluster of PCs running the driver
// and the SMP running the query server; the network is intentionally not on
// the measured path of any experiment.
package netproto

import (
	"encoding/gob"
	"fmt"
	"io"

	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/vm"
)

// Verbs a request can carry. The zero value is a query.
const (
	// VerbQuery (or an empty Verb) runs a Virtual Microscope query.
	VerbQuery = "QUERY"
	// VerbMetrics returns the server's metrics registry rendered in the
	// Prometheus text format (Response.Metrics); the query fields are
	// ignored.
	VerbMetrics = "METRICS"
	// VerbTrace returns span data from the server's tracer in
	// Response.Trace. With Request.QueryID set, the rendered span tree of
	// that query; with Request.TraceChrome set, the whole retained span ring
	// as Chrome trace_event JSON in Response.TraceJSON (the same document the
	// metrics listener serves on /trace); otherwise the slow-query log
	// entries with sequence numbers above Request.SinceSeq (Response.TraceSeq
	// reports the highest sequence returned, for resuming the poll).
	VerbTrace = "TRACE"
	// VerbPing answers with build identity and uptime (Response.Ping) — the
	// cheap liveness probe health checkers use instead of paying for a full
	// METRICS snapshot.
	VerbPing = "PING"
)

// Request is one client request: a Virtual Microscope query (the default) or
// an administrative verb. A request with an unknown verb is answered with an
// error response; the connection stays usable.
type Request struct {
	// Verb selects the operation; empty means VerbQuery.
	Verb           string
	Slide          string
	X0, Y0, X1, Y1 int64 // window at base resolution
	Zoom           int64
	Op             string // "subsample" or "average"
	// OmitPixels asks the server not to ship the image back (load
	// generation only).
	OmitPixels bool
	// QueryID selects the query whose span tree a VerbTrace request wants;
	// zero asks for slow-query log entries instead.
	QueryID int64
	// SinceSeq filters a VerbTrace slow-log request to entries with
	// sequence numbers strictly above it (0 returns everything retained).
	SinceSeq int64
	// TraceChrome asks a VerbTrace request for the full retained span ring
	// as Chrome trace_event JSON (Response.TraceJSON) instead of rendered
	// text. Ignored when QueryID is set.
	TraceChrome bool
	// MetricsSnapshot asks a VerbMetrics request for the structured registry
	// snapshot (Response.MetricsSnap) alongside the Prometheus text. The
	// cluster router merges backend snapshots with metrics.Snapshot.Merge and
	// the load runner reads its reuse counters from it.
	MetricsSnapshot bool
}

// Meta converts the request to a VM predicate, validating and zoom-aligning
// the window against bounds.
func (r *Request) Meta(bounds geom.Rect) (vm.Meta, error) {
	op, err := vm.ParseOp(r.Op)
	if err != nil {
		return vm.Meta{}, err
	}
	if r.Zoom < 1 {
		return vm.Meta{}, fmt.Errorf("netproto: zoom %d < 1", r.Zoom)
	}
	w := vm.AlignRect(geom.R(r.X0, r.Y0, r.X1, r.Y1), r.Zoom, bounds)
	if w.Empty() {
		return vm.Meta{}, fmt.Errorf("netproto: window %v outside slide bounds %v", geom.R(r.X0, r.Y0, r.X1, r.Y1), bounds)
	}
	return vm.NewMeta(r.Slide, w, r.Zoom, op), nil
}

// Response carries the answer image and server-side timings.
type Response struct {
	Err string
	// Width and Height are the output image dimensions.
	Width, Height int64
	// Pixels is row-major RGB (empty when OmitPixels was set).
	Pixels []byte
	// Server-side measurements.
	ResponseMS float64
	WaitMS     float64
	ExecMS     float64
	ReusedFrac float64
	// Metrics is the Prometheus-text-format registry dump answering a
	// VerbMetrics request.
	Metrics string
	// Trace is the rendered span tree or slow-query log answering a
	// VerbTrace request.
	Trace string
	// TraceSeq is the highest slow-log sequence number included in Trace;
	// pass it back as SinceSeq to poll for newer entries.
	TraceSeq int64
	// TraceJSON is the Chrome trace_event JSON document answering a
	// VerbTrace request with TraceChrome set; loadable by chrome://tracing,
	// Perfetto, or mqviz.
	TraceJSON []byte
	// MetricsSnap is the structured registry snapshot answering a
	// VerbMetrics request with MetricsSnapshot set.
	MetricsSnap *metrics.Snapshot
	// Ping answers a VerbPing request.
	Ping *PingInfo
}

// PingInfo is the cheap liveness answer: who is up, for how long, built from
// what. Probers use it to health-check without the cost of a METRICS
// snapshot.
type PingInfo struct {
	// Role distinguishes a single query server ("server") from the cluster
	// router ("router").
	Role string
	// UptimeMS is milliseconds since the responder started serving.
	UptimeMS float64
	// Version, Go, and Strategies mirror mqsched.BuildInfo().
	Version    string
	Go         string
	Strategies string
}

// Conn wraps a stream with gob encoding in both directions.
type Conn struct {
	enc *gob.Encoder
	dec *gob.Decoder
	rw  io.ReadWriteCloser
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw), rw: rw}
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }

// WriteRequest sends a request.
func (c *Conn) WriteRequest(r *Request) error { return c.enc.Encode(r) }

// ReadRequest receives a request.
func (c *Conn) ReadRequest() (*Request, error) {
	var r Request
	if err := c.dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteResponse sends a response.
func (c *Conn) WriteResponse(r *Response) error { return c.enc.Encode(r) }

// ReadResponse receives a response.
func (c *Conn) ReadResponse() (*Response, error) {
	var r Response
	if err := c.dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}
