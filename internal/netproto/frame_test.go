package netproto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/metrics"
)

// memRW is an in-memory stream: what is written can be read back.
type memRW struct{ bytes.Buffer }

func (*memRW) Close() error { return nil }

// wireHeader has the shape of a response frame's gob header (gob matches
// fields by name), spelled out so that a test can announce any lengths.
type wireHeader struct {
	Response                Response
	PixelsLen, TraceJSONLen int64
}

// rawFrame assembles a frame by hand: a prefix announcing hdrLen header bytes
// (negative: the header's real length), hdr in gob, and payload.
func rawFrame(t testing.TB, hdr any, hdrLen int, payload []byte) []byte {
	t.Helper()
	var h bytes.Buffer
	if err := gob.NewEncoder(&h).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if hdrLen < 0 {
		hdrLen = h.Len()
	}
	b := append([]byte(frameMagic), frameVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(hdrLen))
	return append(append(b, h.Bytes()...), payload...)
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// payloadLengths are the sizes the framing has edges at: nothing, one byte,
// around the read buffer's size, and a real image.
var payloadLengths = []int{0, 1, 4095, 4096, 4097, 768 << 10}

func randomBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randomResponse(rng *rand.Rand) *Response {
	r := &Response{
		Width:      rng.Int63n(4096),
		Height:     rng.Int63n(4096),
		Pixels:     randomBytes(rng, payloadLengths[rng.Intn(len(payloadLengths))]),
		TraceJSON:  randomBytes(rng, payloadLengths[rng.Intn(len(payloadLengths))]),
		ResponseMS: rng.Float64(),
		WaitMS:     rng.Float64(),
		ExecMS:     rng.Float64(),
		ReusedFrac: rng.Float64(),
	}
	if rng.Intn(2) == 0 {
		r.Err = "err " + strings.Repeat("x\n", rng.Intn(5000)) // up to past the read buffer
	}
	if rng.Intn(2) == 0 {
		r.Ping = &PingInfo{Role: "server", UptimeMS: rng.Float64(), Version: "v", Go: "go", Strategies: "cf"}
	}
	return r
}

func cloneResponse(r *Response) *Response {
	c := *r
	c.Pixels = bytes.Clone(r.Pixels)
	c.TraceJSON = bytes.Clone(r.TraceJSON)
	if r.Ping != nil {
		p := *r.Ping
		c.Ping = &p
	}
	return &c
}

// TestFrameRoundTrip: random responses, pipelined on one connection (the
// writer never waits for the reader), arrive equal, and writing them leaves
// them as they were.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sent := make([]*Response, 64)
	for i := range sent {
		sent[i] = randomResponse(rng)
	}
	a, b := net.Pipe()
	w, r := NewConn(a), NewConn(b)
	defer r.Close()
	go func() {
		defer w.Close()
		for i, res := range sent {
			before := cloneResponse(res)
			if err := w.WriteResponse(res); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(res, before) {
				t.Errorf("WriteResponse changed response %d", i)
			}
		}
	}()
	for i, want := range sent {
		got, err := r.ReadResponse()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("response %d changed on the wire:\n got %.200v\nwant %.200v", i, got, want)
		}
	}
	if _, err := r.ReadResponse(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestWriteSharedResponse: one *Response handed to two connections at once,
// as a handler with a canned answer does. Run under -race, this is the test
// that WriteResponse only reads it.
func TestWriteSharedResponse(t *testing.T) {
	shared := randomResponse(rand.New(rand.NewSource(2)))
	shared.Pixels = randomBytes(rand.New(rand.NewSource(3)), 768<<10)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		a, b := net.Pipe()
		w, r := NewConn(a), NewConn(b)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer w.Close()
			for i := 0; i < 3; i++ {
				if err := w.WriteResponse(shared); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer r.Close()
			for i := 0; i < 3; i++ {
				got, err := r.ReadResponse()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !reflect.DeepEqual(got, shared) {
					t.Errorf("copy %d differs from the shared response", i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOversizedFrameRefused: lengths are checked against the caps before
// anything is allocated for them.
func TestOversizedFrameRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"1 TB of pixels", rawFrame(t, &wireHeader{PixelsLen: 1 << 40}, -1, nil)},
		{"1 TB of trace", rawFrame(t, &wireHeader{TraceJSONLen: 1 << 40}, -1, nil)},
		{"two halves over the cap", rawFrame(t, &wireHeader{PixelsLen: MaxPayloadBytes/2 + 1, TraceJSONLen: MaxPayloadBytes / 2}, -1, nil)},
		{"negative length", rawFrame(t, &wireHeader{PixelsLen: -1}, -1, nil)},
		{"4 GB header", rawFrame(t, &wireHeader{}, 1<<32-1, nil)},
		{"header one over the cap", rawFrame(t, &wireHeader{}, MaxHeaderBytes+1, nil)},
	} {
		var res *Response
		var err error
		c := NewConn(&memRW{*bytes.NewBuffer(tc.frame)})
		n := allocatedBy(func() { res, err = c.ReadResponse() })
		if err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("%s: got %v, %v; want an error naming the cap", tc.name, res, err)
		}
		if n > 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", tc.name, n)
		}
	}
	// At the cap is fine: the frame is accepted and the missing payload is
	// what fails.
	c := NewConn(&memRW{*bytes.NewBuffer(rawFrame(t, &wireHeader{PixelsLen: MaxPayloadBytes}, -1, nil))})
	if _, err := c.ReadResponse(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("payload at the cap, then end of stream: %v, want unexpected EOF", err)
	}
	// And a writer refuses to produce what a reader would refuse, leaving
	// the connection good for an apology.
	var out memRW
	w := NewConn(&out)
	if err := w.WriteResponse(&Response{Pixels: make([]byte, MaxPayloadBytes+1)}); !errors.Is(err, errPayloadTooLarge) || out.Len() != 0 {
		t.Errorf("writing an oversized response: %v, %d bytes written", err, out.Len())
	}
}

// TestOversizedWindowRefused: a window whose image would not fit a frame is
// refused before the query is submitted, and the connection carries on.
func TestOversizedWindowRefused(t *testing.T) {
	sys, err := mqsched.New(mqsched.Config{Mode: mqsched.Real, Threads: 2, TimeScale: 1e-9},
		mqsched.NewSlideTable(mqsched.Slide{Name: "wide", Width: 5000, Height: 5000}))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, sys, t.Logf)
	c := NewClient(l.Addr().String(), time.Second)
	defer c.Close()

	// 5000 x 5000 x 3 = 75 MB.
	resp, err := c.Do(&Request{Slide: "wide", X1: 5000, Y1: 5000, Zoom: 1, Op: "subsample", OmitPixels: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "frame cap") {
		t.Errorf("a 75 MB window: Err = %q, want a refusal naming the frame cap", resp.Err)
	}
	if n := sys.Stats().Server.Submitted; n != 0 {
		t.Errorf("the oversized window was submitted (%d queries)", n)
	}
	resp, err = c.Do(&Request{Slide: "wide", X1: 5000, Y1: 5000, Zoom: 2, Op: "subsample", OmitPixels: true})
	if err != nil || resp.Err != "" || resp.Width != 2500 {
		t.Fatalf("the same window zoomed out, on the same connection: %v %+v", err, resp)
	}
}

// canned answers every request with the same response, as bench/'s probe
// handler does.
type canned struct{ res *Response }

func (h canned) Answer(*Request, ConnInfo) *Response { return h.res }

// image768k is a reply the size of the benchmark's: 512 x 512 RGB.
var image768k = &Response{Width: 512, Height: 512, Pixels: make([]byte, 768<<10)}

// faultConn is a net.Conn whose writes go wrong after the first clean bytes:
// with cut the connection closes there, otherwise every further byte is sent
// alone, gap after the one before.
type faultConn struct {
	net.Conn
	clean int
	gap   time.Duration
	cut   bool
}

func (f *faultConn) Write(p []byte) (int, error) {
	n := 0
	if k := min(f.clean, len(p)); k > 0 {
		var err error
		n, err = f.Conn.Write(p[:k])
		f.clean -= n
		if err != nil || n == len(p) {
			return n, err
		}
	}
	if f.cut {
		f.Conn.Close()
		return n, io.ErrClosedPipe
	}
	for ; n < len(p); n++ {
		time.Sleep(f.gap)
		if _, err := f.Conn.Write(p[n : n+1]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// faultyServer accepts connections and answers every request with a 768 KB
// image written through a faultConn made by fault.
func faultyServer(t *testing.T, fault func(net.Conn) net.Conn) (addr string, wait func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveConn(NewConn(fault(nc)), canned{image768k}, 0, func(string, ...any) {})
			}()
		}
	}()
	return l.Addr().String(), func() { l.Close(); wg.Wait() }
}

// noLeak fails the test if it ends with more goroutines than it began with.
func noLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 200 {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines at the start, %d at the end:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// The deadline tests shorten FrameTimeout to testTimeout and require the
// failure within testLimit, far below FrameTimeout itself.
const (
	testTimeout = 150 * time.Millisecond
	testLimit   = 3 * time.Second
)

// within runs f and fails if it takes longer than testLimit.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	start := time.Now()
	go func() { defer close(done); f() }()
	select {
	case <-done:
		t.Logf("%s: %v", what, time.Since(start).Round(time.Millisecond))
	case <-time.After(testLimit):
		t.Fatalf("%s: still going after %v", what, testLimit)
	}
}

// TestStalledReader: a client sends a query and never reads the reply. The
// serving loop's write gives up at the deadline and the connection closes.
func TestStalledReader(t *testing.T) {
	noLeak(t)
	client, server := net.Pipe() // no buffering: the write blocks at once
	defer client.Close()
	sc := NewConn(server)
	sc.timeout = testTimeout
	var logged string
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveConn(sc, canned{image768k}, 1, func(format string, args ...any) { logged = format })
	}()
	if err := NewConn(client).WriteRequest(&Request{Slide: "s"}); err != nil {
		t.Fatal(err)
	}
	within(t, "serving loop gives up on a reader that never reads", func() { <-served })
	if !strings.Contains(logged, "write") {
		t.Errorf("the loop ended without logging a write error (%q)", logged)
	}
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Error("the connection is still open after the missed deadline")
	}
}

// TestTrickleWriter: a peer that starts a frame and then sends a byte every
// now and then keeps making progress, so only a deadline on the whole frame
// ends the wait. (The byte comes every 20 ms against a 150 ms deadline where
// the field case is a byte a second against FrameTimeout.) Client.Do and
// Client.Forward, which the router's pools use, both give up and drop the
// connection; so does the serving loop on a trickled request.
func TestTrickleWriter(t *testing.T) {
	noLeak(t)
	trickle := func(after int) func(net.Conn) net.Conn {
		return func(nc net.Conn) net.Conn { return &faultConn{Conn: nc, clean: after, gap: 20 * time.Millisecond} }
	}
	for _, tc := range []struct {
		name  string
		after int // bytes sent at full speed
	}{
		{"mid-payload", 100 << 10},
		{"mid-header", prefixLen + 3},
		{"mid-prefix", 2},
	} {
		addr, wait := faultyServer(t, trickle(tc.after))
		for name, do := range map[string]func(*Client, *Request) (*Response, error){"Do": (*Client).Do, "Forward": (*Client).Forward} {
			c := NewClient(addr, time.Second)
			c.frameTimeout = testTimeout
			var err error
			within(t, name+" against a reply trickling "+tc.name, func() { _, err = do(c, &Request{Slide: "s"}) })
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s, reply trickling %s: %v, want a deadline error", name, tc.name, err)
			}
			if c.conn != nil {
				t.Errorf("%s, reply trickling %s: the client kept the connection", name, tc.name)
			}
			c.Close()
		}
		wait()
	}

	// The other direction: a request that trickles in.
	client, server := net.Pipe()
	sc := NewConn(server)
	sc.timeout = testTimeout
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveConn(sc, canned{image768k}, 1, t.Logf)
	}()
	slow := NewConn(&faultConn{Conn: client, clean: prefixLen + 3, gap: 20 * time.Millisecond})
	slow.timeout = testLimit // the writer's own deadline is not the one under test
	go slow.WriteRequest(&Request{Slide: "s"})
	within(t, "serving loop gives up on a request trickling in", func() { <-served })
	client.Close()
}

// TestPeerClosesMidPayload: the stream ends inside a frame; the reader says
// so at once and the client drops the connection.
func TestPeerClosesMidPayload(t *testing.T) {
	noLeak(t)
	addr, wait := faultyServer(t, func(nc net.Conn) net.Conn { return &faultConn{Conn: nc, clean: 100 << 10, cut: true} })
	defer wait()
	c := NewClient(addr, time.Second)
	defer c.Close()
	var err error
	within(t, "Do against a peer that closes mid-payload", func() { _, err = c.Do(&Request{Slide: "s"}) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("got %v, want unexpected EOF", err)
	}
	if c.conn != nil {
		t.Error("the client kept the connection")
	}
}

// TestIdleConnectionsHaveNoDeadline: between frames nothing times out. An
// idle server connection outlives the deadline, and so does a client waiting
// for a reply that has not begun.
func TestIdleConnectionsHaveNoDeadline(t *testing.T) {
	client, server := net.Pipe()
	sc, cc := NewConn(server), NewConn(client)
	sc.timeout, cc.timeout = testTimeout, testTimeout
	defer cc.Close()
	go serveConn(sc, slowHandler{2 * testTimeout}, 1, t.Logf)
	for i := 0; i < 2; i++ {
		time.Sleep(2 * testTimeout) // idle, longer than the deadline
		if err := cc.WriteRequest(&Request{Slide: "s"}); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.ReadResponse(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// slowHandler takes its time, like a query in a queue.
type slowHandler struct{ d time.Duration }

func (h slowHandler) Answer(*Request, ConnInfo) *Response {
	time.Sleep(h.d)
	return &Response{Width: 1, Height: 1, Pixels: []byte{1, 2, 3}}
}

// FuzzReadFrame feeds the decoder arbitrary streams. It must not panic, must
// not hand out more payload than the cap, and must not allocate beyond the
// caps for lengths a stream merely announces.
func FuzzReadFrame(f *testing.F) {
	var valid memRW
	w := NewConn(&valid)
	for _, res := range []*Response{
		{Width: 2, Height: 1, Pixels: []byte{1, 2, 3, 4, 5, 6}, ReusedFrac: 0.5},
		{TraceJSON: []byte(`{"traceEvents":[]}`), MetricsSnap: &metrics.Snapshot{Families: []metrics.FamilySnapshot{{Name: "m"}}}},
		{Err: "no", Ping: &PingInfo{Role: "server"}},
	} {
		if err := w.WriteResponse(res); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2]) // truncated
	f.Add(rawFrame(f, &wireHeader{PixelsLen: MaxPayloadBytes}, -1, []byte{1}))
	f.Add(rawFrame(f, &wireHeader{PixelsLen: MaxPayloadBytes, TraceJSONLen: 1}, -1, nil))
	f.Add(rawFrame(f, &wireHeader{TraceJSONLen: -1}, -1, nil))
	f.Add(rawFrame(f, &wireHeader{}, MaxHeaderBytes, nil))
	f.Add(rawFrame(f, &wireHeader{}, MaxHeaderBytes+1, nil))
	f.Add(rawFrame(f, &Request{Slide: "s", X1: 8, Y1: 8, Zoom: 1, Op: "subsample"}, -1, nil))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		n := allocatedBy(func() {
			c := NewConn(&memRW{*bytes.NewBuffer(bytes.Clone(data))})
			for {
				res, err := c.ReadResponse()
				if err != nil {
					break
				}
				if len(res.Pixels)+len(res.TraceJSON) > MaxPayloadBytes {
					t.Fatalf("a response with %d+%d payload bytes got through", len(res.Pixels), len(res.TraceJSON))
				}
			}
			c = NewConn(&memRW{*bytes.NewBuffer(bytes.Clone(data))})
			for {
				if _, err := c.ReadRequest(); err != nil {
					break
				}
			}
		})
		// One payload and one header at their caps, what gob sets aside for a
		// message before it has seen it (10 MB), and the stream itself.
		if limit := uint64(MaxPayloadBytes + MaxHeaderBytes + 10<<20 + 8*len(data) + 1<<20); n > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), n, limit)
		}
	})
}
