package netproto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"mqsched"
	"mqsched/internal/trace"
)

// Handler answers requests read off a client connection. It is the seam
// between the wire plumbing (accept loop, framing, connection lifecycle)
// and whatever stands behind it: a single query server (SystemHandler), the
// cluster router (internal/cluster), or a test fake. Answer must be safe for
// concurrent use — every connection calls it from its own goroutine — and
// must always return a response (bad requests yield Response.Err, never a
// dropped connection).
type Handler interface {
	Answer(req *Request, from ConnInfo) *Response
}

// ConnInfo identifies where a request came from: the serving loop's
// connection number and the request's ordinal on that connection. Handlers
// use it to name per-request client processes and to label logs; it carries
// no network details.
type ConnInfo struct {
	ConnID int64
	ReqNo  int
}

// Serve accepts connections on l and answers Virtual Microscope requests
// against sys (which must be a Real-mode system). It returns when the
// listener is closed.
func Serve(l net.Listener, sys *mqsched.System, logf func(format string, args ...any)) error {
	return ServeHandler(l, NewSystemHandler(sys), logf)
}

// ServeHandler accepts connections on l and answers each request via h. It
// returns when the listener is closed.
func ServeHandler(l net.Listener, h Handler, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = log.Printf
	}
	var id int64
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		n := atomic.AddInt64(&id, 1)
		logf("client %d connected from %s", n, nc.RemoteAddr())
		go serveConn(NewConn(nc), h, n, logf)
	}
}

// serveConn answers the requests of one connection until the client hangs up
// or a frame fails (malformed, over a cap, past its deadline); either way the
// connection is closed.
func serveConn(c *Conn, h Handler, id int64, logf func(string, ...any)) {
	defer c.Close()
	for reqNo := 0; ; reqNo++ {
		req, err := c.ReadRequest()
		if err != nil {
			if err != io.EOF {
				logf("client %d: read: %v", id, err)
			}
			return
		}
		resp := h.Answer(req, ConnInfo{ConnID: id, ReqNo: reqNo})
		err = c.WriteResponse(resp)
		if errors.Is(err, errPayloadTooLarge) {
			// Nothing was written; say so in a reply and carry on.
			err = c.WriteResponse(&Response{Err: err.Error()})
		}
		// Only now, with the write over, may a forwarded payload's buffer
		// be used for another response.
		resp.release()
		if err != nil {
			logf("client %d: write: %v", id, err)
			return
		}
	}
}

// SystemHandler answers requests against one mqsched.System — the single
// query server the protocol originally fronted. The zero value is unusable;
// construct with NewSystemHandler (which stamps the uptime epoch PING
// reports).
type SystemHandler struct {
	sys   *mqsched.System
	start time.Time
}

// NewSystemHandler wraps sys for ServeHandler.
func NewSystemHandler(sys *mqsched.System) *SystemHandler {
	return &SystemHandler{sys: sys, start: time.Now()}
}

// Answer dispatches one request by verb. Bad requests — unknown verbs
// included — yield an error response, never a dropped connection.
func (h *SystemHandler) Answer(req *Request, from ConnInfo) *Response {
	switch req.Verb {
	case "", VerbQuery:
		return h.answerQuery(req, from)
	case VerbPing:
		bi := mqsched.BuildInfo()
		return &Response{Ping: &PingInfo{
			Role:       "server",
			UptimeMS:   float64(time.Since(h.start).Microseconds()) / 1000,
			Version:    bi["version"],
			Go:         bi["go"],
			Strategies: bi["strategies"],
		}}
	case VerbMetrics:
		snap := h.sys.Metrics().Snapshot()
		var sb strings.Builder
		if err := snap.WritePrometheus(&sb); err != nil {
			return &Response{Err: err.Error()}
		}
		resp := &Response{Metrics: sb.String()}
		if req.MetricsSnapshot {
			resp.MetricsSnap = &snap
		}
		return resp
	case VerbTrace:
		return h.answerTrace(req)
	default:
		return &Response{Err: fmt.Sprintf("netproto: unknown verb %q", req.Verb)}
	}
}

// answerTrace serves span data: one query's tree (QueryID set) or the
// slow-query log above SinceSeq.
func (h *SystemHandler) answerTrace(req *Request) *Response {
	tr := h.sys.Spans()
	if tr == nil {
		return &Response{Err: "netproto: span tracing not enabled on this server"}
	}
	if req.QueryID != 0 {
		spans := tr.QueryTree(req.QueryID)
		if len(spans) == 0 {
			return &Response{Err: fmt.Sprintf("netproto: no spans retained for query %d", req.QueryID)}
		}
		return &Response{Trace: trace.FormatTree(spans)}
	}
	if req.TraceChrome {
		var buf bytes.Buffer
		if err := tr.WriteChromeInfo(&buf, mqsched.BuildInfo()); err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{TraceJSON: buf.Bytes()}
	}
	var sb strings.Builder
	seq := req.SinceSeq
	for _, e := range tr.SlowEntries(req.SinceSeq) {
		sb.WriteString(e.Format())
		if e.Seq > seq {
			seq = e.Seq
		}
	}
	return &Response{Trace: sb.String(), TraceSeq: seq}
}

// answerQuery runs one query through the query server synchronously.
func (h *SystemHandler) answerQuery(req *Request, from ConnInfo) *Response {
	sys := h.sys
	layout, ok := sys.Datasets().Lookup(req.Slide)
	if !ok {
		return &Response{Err: fmt.Sprintf("unknown slide %q", req.Slide)}
	}
	m, err := req.Meta(layout.Bounds())
	if err != nil {
		return &Response{Err: err.Error()}
	}
	out := m.OutRect()
	if out.Dx()*out.Dy() > MaxPayloadBytes/3 {
		return &Response{Err: fmt.Sprintf("netproto: window %v at zoom %d is a %d x %d image, over the %d-byte frame cap; zoom out or ask for less",
			m.Rect, m.Zoom, out.Dx(), out.Dy(), MaxPayloadBytes)}
	}
	ticket, err := sys.Submit(m)
	if err != nil {
		return &Response{Err: err.Error()}
	}

	// Wait for completion on a client process of the real runtime.
	done := make(chan *mqsched.Result, 1)
	sys.Start(fmt.Sprintf("conn%d-req%d", from.ConnID, from.ReqNo), func(ctx mqsched.Ctx) {
		done <- ticket.Wait(ctx)
	})
	res := <-done

	resp := &Response{
		Width:      out.Dx(),
		Height:     out.Dy(),
		ResponseMS: float64(res.ResponseTime().Microseconds()) / 1000,
		WaitMS:     float64(res.WaitTime().Microseconds()) / 1000,
		ExecMS:     float64(res.ExecTime().Microseconds()) / 1000,
		ReusedFrac: res.ReusedFrac,
	}
	if !req.OmitPixels {
		resp.Pixels = res.Blob.Data
	}
	return resp
}
