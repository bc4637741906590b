package netproto

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is one logical client connection: lazily dialed, serialized
// (request/response pairs over one TCP stream are strictly ordered by the
// protocol), and self-healing — a transport error closes the connection and
// the next Do redials. The load generator multiplexes thousands of
// simulated users over a small number of Clients via Pool.
type Client struct {
	addr    string
	timeout time.Duration
	// frameTimeout replaces FrameTimeout on the connections this client
	// dials when non-zero; only tests set it.
	frameTimeout time.Duration

	mu   sync.Mutex
	conn *Conn
}

// NewClient returns an unconnected client for addr; dialTimeout 0 means a
// 5-second default.
func NewClient(addr string, dialTimeout time.Duration) *Client {
	if dialTimeout == 0 {
		dialTimeout = 5 * time.Second
	}
	return &Client{addr: addr, timeout: dialTimeout}
}

// Do sends one request and reads its response, dialing if necessary. On a
// transport error it drops the connection and retries once on a fresh dial,
// so a server restart between requests is invisible to the caller. Response
// errors (Response.Err) are returned as-is, not retried. The response's
// Pixels and TraceJSON belong to the caller.
func (c *Client) Do(req *Request) (*Response, error) { return c.do(req, false) }

// Forward is Do for a relay: a Handler that returns the backend's response
// as its own answer. The response's Pixels and TraceJSON sit in a recycled
// buffer, which the serving loop takes back after it has written the
// response to its client; the handler must not keep them, or the response,
// beyond returning it. A response that never reaches a serving loop (Answer
// called in process) simply keeps its buffer until the collector frees it.
func (c *Client) Forward(req *Request) (*Response, error) { return c.do(req, true) }

func (c *Client) do(req *Request, recycle bool) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.doLocked(req, recycle)
	if err == nil {
		return resp, nil
	}
	// The stream is in an unknown state (a missed frame deadline included);
	// drop it, reconnect and retry once.
	c.closeLocked()
	resp, err = c.doLocked(req, recycle)
	if err != nil {
		c.closeLocked()
	}
	return resp, err
}

func (c *Client) doLocked(req *Request, recycle bool) (*Response, error) {
	if c.conn == nil {
		nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return nil, fmt.Errorf("netproto: dial %s: %w", c.addr, err)
		}
		c.conn = NewConn(nc)
		if c.frameTimeout != 0 {
			c.conn.timeout = c.frameTimeout
		}
	}
	if err := c.conn.WriteRequest(req); err != nil {
		return nil, err
	}
	return c.conn.readResponse(recycle)
}

// Ping sends the cheap liveness probe and returns the responder's identity.
// An answer without one (Response.Err, or no PingInfo) is an error.
func (c *Client) Ping() (*PingInfo, error) {
	resp, err := c.Do(&Request{Verb: VerbPing})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("%s", resp.Err)
	}
	if resp.Ping == nil {
		return nil, fmt.Errorf("netproto: ping answered without PingInfo")
	}
	return resp.Ping, nil
}

// TraceChromeDump fetches the server's full retained span ring as Chrome
// trace_event JSON — the snapshot mqviz and chrome://tracing load. A server
// without span tracing answers with a Response.Err, returned as an error.
func (c *Client) TraceChromeDump() ([]byte, error) {
	resp, err := c.Do(&Request{Verb: VerbTrace})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("%s", resp.Err)
	}
	return resp.TraceJSON, nil
}

func (c *Client) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close drops the connection; a later Do redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

// Pool is a fixed-size set of Clients handed out round-robin, bounding the
// server-side connection count no matter how many goroutines issue
// requests. Get never blocks; concurrency beyond the pool size serializes
// on the individual clients' locks, which is the back-pressure a bounded
// worker pool wants.
type Pool struct {
	clients []*Client
	next    atomic.Uint64
}

// NewPool returns a pool of size clients for addr.
func NewPool(addr string, size int, dialTimeout time.Duration) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{clients: make([]*Client, size)}
	for i := range p.clients {
		p.clients[i] = NewClient(addr, dialTimeout)
	}
	return p
}

// Get returns the next client round-robin.
func (p *Pool) Get() *Client {
	return p.clients[p.next.Add(1)%uint64(len(p.clients))]
}

// Size returns the number of clients in the pool.
func (p *Pool) Size() int { return len(p.clients) }

// Close closes every client.
func (p *Pool) Close() {
	for _, c := range p.clients {
		c.Close()
	}
}
