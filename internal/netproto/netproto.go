// Package netproto is the wire protocol of the live demo server:
// request/response pairs over a persistent TCP connection. It stands in for
// the paper's client protocol between the cluster of PCs running the driver
// and the SMP running the query server; the network is intentionally not on
// the measured path of any experiment.
//
// Framing. A frame is a prefix ("MQS", a version byte, the header's length),
// a small gob header, and the pixels as raw bytes (see the constants next to
// Conn). There is one framing and one version: a peer whose first bytes are
// not the prefix is told "not an mqsched frame" and dropped.
//
// Bounds. A header is at most MaxHeaderBytes and a payload at most
// MaxPayloadBytes. A reader checks both before it allocates for them, and
// SystemHandler refuses a query whose image would not fit.
//
// Deadlines. Every frame write, and every frame read once its first byte has
// arrived, must finish within FrameTimeout; a connection that misses it is
// closed, never reused. Waiting for a frame to begin is not bounded here:
// how long a query may queue is the server's business, not the framing's.
//
// Who owns the payload. WriteResponse writes Response.Pixels from wherever
// they are (the server's result blob) and leaves the Response alone.
// Client.Do returns Pixels in a slice of the caller's own. Client.Forward,
// for a relay such as the cluster router, returns them in a recycled buffer
// that the serving loop takes back once it has written the response to its
// own client, and not before.
package netproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

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

	// pooled is the recycled buffer Pixels and TraceJSON point into when the
	// response was read by Client.Forward; release gives it back. Gob does
	// not see it.
	pooled *[]byte
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

// The frame. Every message, in either direction, is
//
//	"MQS" | version (1 byte) | header length (uint32, big endian) | header | payload
//
// The header is a gob value: a Request, or a Response whose Pixels and
// TraceJSON are empty and whose two lengths are given in their place. The
// payload is those two byte slices, raw, one after the other; a request has
// none. Gob therefore only ever sees the small fields, and a pixel crosses a
// hop by one write from the slice it already lives in and one read into the
// slice it will be used from.
const (
	frameMagic   = "MQS"
	frameVersion = 1
	prefixLen    = len(frameMagic) + 1 + 4

	// MaxHeaderBytes caps a frame's gob header: the scalar fields plus the
	// METRICS text, the registry snapshot or a rendered trace. A reader
	// refuses a longer one before reading it.
	MaxHeaderBytes = 1 << 20
	// MaxPayloadBytes caps a frame's raw payload (Pixels plus TraceJSON). A
	// 4096 x 4096 RGB image (48 MB) fits. A reader refuses a frame that
	// announces more before allocating anything for it, a writer refuses to
	// send one, and SystemHandler refuses the query that would produce one.
	MaxPayloadBytes = 64 << 20
	// payloadStep is how much of an announced payload a reader makes room for
	// before any of it has arrived: a 1024 x 1024 RGB image and some.
	payloadStep = 4 << 20

	// FrameTimeout bounds every frame on a connection that has deadlines (any
	// net.Conn): a write must complete within it, and once the first byte of
	// a frame has arrived the rest of the frame must, however slowly it
	// trickles. Waiting for a frame to begin is not bounded: a server
	// connection may idle between requests, and a client waits for as long
	// as its query is queued and executed.
	FrameTimeout = 10 * time.Second
)

// errPayloadTooLarge is what WriteResponse returns, before writing anything,
// for a response over MaxPayloadBytes.
var errPayloadTooLarge = errors.New("netproto: response payload over the frame cap")

// responseHeader is the gob header of a response frame.
type responseHeader struct {
	Response                // Pixels and TraceJSON emptied
	PixelsLen, TraceJSONLen int64
}

// payloadPool recycles the buffers forwarded responses are read into (see
// Client.Forward). It holds *[]byte.
var payloadPool sync.Pool

// release hands the payload buffer of a forwarded response back for reuse and
// empties the response, so a use after release shows as missing pixels, not
// as someone else's. It does nothing to any other response.
func (r *Response) release() {
	if r.pooled == nil {
		return
	}
	buf := r.pooled
	r.pooled, r.Pixels, r.TraceJSON = nil, nil, nil
	payloadPool.Put(buf)
}

// deadliner is the part of net.Conn the framing uses to bound a frame.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Conn frames requests and responses over a stream. It is not safe for
// concurrent use; Client and the serving loop each own theirs.
type Conn struct {
	rw      io.ReadWriteCloser
	dl      deadliner     // rw, when it has deadlines
	timeout time.Duration // FrameTimeout; tests shorten it
	armed   bool          // a read deadline is set on dl

	br     *bufio.Reader
	dec    *gob.Decoder // reads decSrc, one frame's header at a time
	decSrc bytes.Reader

	enc    *gob.Encoder // writes encBuf
	encBuf bytes.Buffer // prefix and header of the frame being written
	wh     responseHeader
	bufs   net.Buffers
}

// NewConn wraps rw. Frames are held to FrameTimeout when rw has deadlines, as
// every net.Conn does.
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{rw: rw, timeout: FrameTimeout, br: bufio.NewReader(rw)}
	c.dl, _ = rw.(deadliner)
	c.dec = gob.NewDecoder(&c.decSrc)
	c.enc = gob.NewEncoder(&c.encBuf)
	return c
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }

// WriteRequest sends a request.
func (c *Conn) WriteRequest(r *Request) error { return c.writeFrame(r, nil, nil) }

// ReadRequest receives a request. At a clean end of stream between frames it
// returns io.EOF.
func (c *Conn) ReadRequest() (*Request, error) {
	var r Request
	if err := c.readHeader(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteResponse sends a response: the header through gob, r.Pixels and
// r.TraceJSON from where they are. It does not modify r, which a handler may
// be handing to several connections at once.
func (c *Conn) WriteResponse(r *Response) error {
	if len(r.Pixels)+len(r.TraceJSON) > MaxPayloadBytes {
		return fmt.Errorf("%w: %d+%d bytes, cap %d", errPayloadTooLarge, len(r.Pixels), len(r.TraceJSON), MaxPayloadBytes)
	}
	c.wh = responseHeader{Response: *r, PixelsLen: int64(len(r.Pixels)), TraceJSONLen: int64(len(r.TraceJSON))}
	c.wh.Pixels, c.wh.TraceJSON, c.wh.pooled = nil, nil, nil
	err := c.writeFrame(&c.wh, r.Pixels, r.TraceJSON)
	c.wh = responseHeader{}
	return err
}

// ReadResponse receives a response. Its Pixels and TraceJSON are the
// caller's.
func (c *Conn) ReadResponse() (*Response, error) { return c.readResponse(false) }

// writeFrame sends one frame with a single write, vectored (on TCP) when
// there is a payload.
func (c *Conn) writeFrame(hdr any, p1, p2 []byte) error {
	c.encBuf.Reset()
	c.encBuf.Write(make([]byte, prefixLen)) // filled in below, once the header's length is known
	if err := c.enc.Encode(hdr); err != nil {
		return fmt.Errorf("netproto: encode frame header: %w", err)
	}
	b := c.encBuf.Bytes()
	n := len(b) - prefixLen
	if n > MaxHeaderBytes {
		return fmt.Errorf("netproto: frame header of %d bytes is over the %d-byte cap", n, MaxHeaderBytes)
	}
	copy(b, frameMagic)
	b[len(frameMagic)] = frameVersion
	binary.BigEndian.PutUint32(b[len(frameMagic)+1:], uint32(n))

	if c.dl != nil {
		_ = c.dl.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	if len(p1)+len(p2) == 0 {
		// A request, PING, an error: write(2) is a microsecond of a 12 us
		// round trip cheaper than a writev(2) of one buffer.
		_, err := c.rw.Write(b)
		return err
	}
	c.bufs = append(c.bufs[:0], b)
	for _, p := range [...][]byte{p1, p2} {
		if len(p) > 0 {
			c.bufs = append(c.bufs, p)
		}
	}
	_, err := c.bufs.WriteTo(c.rw)
	return err
}

// readHeader waits, unbounded, for a frame to begin, then reads its prefix
// and decodes its header into v under the frame's deadline (see arm), which
// stays set for the payload.
func (c *Conn) readHeader(v any) error {
	// A deadline cannot be set on a stream that is already closed; the read
	// that follows says so in better words (io.EOF, for one), so the error
	// of the Set calls is dropped, here and in writeFrame.
	if c.armed {
		c.armed = false
		_ = c.dl.SetReadDeadline(time.Time{})
	}
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	c.arm(prefixLen)
	p, err := c.br.Peek(prefixLen)
	if err != nil {
		return fmt.Errorf("netproto: read frame prefix: %w", midFrame(err))
	}
	if string(p[:len(frameMagic)]) != frameMagic || p[len(frameMagic)] != frameVersion {
		return fmt.Errorf("netproto: not an mqsched frame (starts % x, want %q then version %d)",
			p[:len(frameMagic)+1], frameMagic, frameVersion)
	}
	n := int(binary.BigEndian.Uint32(p[len(frameMagic)+1:]))
	if n > MaxHeaderBytes {
		return fmt.Errorf("netproto: frame header of %d bytes is over the %d-byte cap", n, MaxHeaderBytes)
	}
	c.br.Discard(prefixLen)
	c.arm(n)

	// A header that fits the read buffer (every query and reply) is decoded
	// where it lies; METRICS and TRACE text gets a buffer of its own.
	inPlace := n <= c.br.Size()
	var hdr []byte
	if inPlace {
		hdr, err = c.br.Peek(n)
	} else {
		hdr = make([]byte, n)
		_, err = io.ReadFull(c.br, hdr)
	}
	if err != nil {
		return fmt.Errorf("netproto: read frame header: %w", midFrame(err))
	}
	c.decSrc.Reset(hdr)
	if err := c.dec.Decode(v); err != nil {
		return fmt.Errorf("netproto: decode frame header: %w", err)
	}
	if c.decSrc.Len() != 0 {
		return fmt.Errorf("netproto: %d stray bytes after the frame header", c.decSrc.Len())
	}
	if inPlace {
		c.br.Discard(n)
	}
	return nil
}

// arm sets the frame's read deadline if reading n more bytes can block, that
// is, unless they are buffered already, as all of a small frame is once its
// first byte is. The deadline then counts from the first read that had to
// wait rather than from the frame's first byte; the difference is the time
// it took to get here.
func (c *Conn) arm(n int) {
	if c.dl != nil && !c.armed && c.br.Buffered() < n {
		_ = c.dl.SetReadDeadline(time.Now().Add(c.timeout))
		c.armed = true
	}
}

// midFrame turns the clean io.EOF of a stream that ended inside a frame into
// io.ErrUnexpectedEOF; only readHeader's first byte may end cleanly.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readPayload reads the n bytes a header announced into buf, which it
// replaces when it is too small. Up to payloadStep bytes are taken on the
// header's word; beyond that, room is made only as the bytes arrive (doubling,
// so a large payload is copied about once), and a peer that announces
// MaxPayloadBytes and then sends nothing holds payloadStep until its deadline.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	for have := 0; have < n; {
		want := n
		if cap(buf) < n {
			want = min(n, max(2*have, payloadStep))
			if cap(buf) < want {
				buf = append(make([]byte, 0, want), buf[:have]...)
			}
		}
		buf = buf[:want]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return buf, err
		}
		have = want
	}
	return buf[:n], nil
}

// readResponse receives a response. With recycle, the payload is read into a
// buffer from payloadPool that Response.release gives back; without, into a
// fresh one the caller owns.
func (c *Conn) readResponse(recycle bool) (*Response, error) {
	var h responseHeader
	if err := c.readHeader(&h); err != nil {
		return nil, err
	}
	pl, tl := h.PixelsLen, h.TraceJSONLen
	if pl < 0 || tl < 0 || pl > MaxPayloadBytes || tl > MaxPayloadBytes-pl {
		return nil, fmt.Errorf("netproto: frame announces a payload of %d+%d bytes, cap %d", pl, tl, MaxPayloadBytes)
	}
	res := &h.Response
	res.Pixels, res.TraceJSON = nil, nil
	if pl+tl == 0 {
		return res, nil
	}
	var buf []byte
	if recycle {
		res.pooled, _ = payloadPool.Get().(*[]byte)
		if res.pooled == nil {
			res.pooled = new([]byte)
		}
		buf = *res.pooled
	}
	c.arm(int(pl + tl))
	buf, err := readPayload(c.br, buf, int(pl+tl))
	if recycle {
		*res.pooled = buf
	}
	if err != nil {
		res.release()
		return nil, fmt.Errorf("netproto: read frame payload: %w", midFrame(err))
	}
	// Capacities are clipped so that appending to one slice cannot reach
	// into the other.
	if pl > 0 {
		res.Pixels = buf[:pl:pl]
	}
	if tl > 0 {
		res.TraceJSON = buf[pl:]
	}
	return res, nil
}
