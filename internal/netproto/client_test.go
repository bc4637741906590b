package netproto

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer answers every request with its verb in Response.Err. When
// dropAfter > 0, the server closes each connection after that many
// responses, exercising the client's reconnect path.
func echoServer(t *testing.T, dropAfter int) (addr string, conns *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	conns = new(atomic.Int64)
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer nc.Close()
				c := NewConn(nc)
				for served := 0; dropAfter <= 0 || served < dropAfter; served++ {
					req, err := c.ReadRequest()
					if err != nil {
						return
					}
					if err := c.WriteResponse(&Response{Err: req.Verb}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), conns
}

func TestClientLazyDialAndDo(t *testing.T) {
	addr, conns := echoServer(t, 0)
	c := NewClient(addr, time.Second)
	defer c.Close()
	if conns.Load() != 0 {
		t.Fatal("client dialed before first Do")
	}
	for i := 0; i < 3; i++ {
		resp, err := c.Do(&Request{Verb: VerbMetrics})
		if err != nil || resp.Err != VerbMetrics {
			t.Fatalf("Do %d: %v, %+v", i, err, resp)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("expected 1 connection for 3 requests, server saw %d", got)
	}
}

// TestClientReconnects drops the server side of the connection after every
// response; each following Do must transparently redial.
func TestClientReconnects(t *testing.T) {
	addr, conns := echoServer(t, 1)
	c := NewClient(addr, time.Second)
	defer c.Close()
	for i := 0; i < 4; i++ {
		resp, err := c.Do(&Request{Verb: VerbMetrics})
		if err != nil || resp.Err != VerbMetrics {
			t.Fatalf("Do %d after drop: %v, %+v", i, err, resp)
		}
	}
	if got := conns.Load(); got < 2 {
		t.Fatalf("expected reconnects, server saw %d connections", got)
	}
}

func TestClientDialError(t *testing.T) {
	c := NewClient("127.0.0.1:1", 200*time.Millisecond) // reserved port, nothing listens
	defer c.Close()
	if _, err := c.Do(&Request{Verb: VerbMetrics}); err == nil {
		t.Fatal("Do against a dead address should fail")
	}
}

func TestPoolRoundRobin(t *testing.T) {
	addr, conns := echoServer(t, 0)
	p := NewPool(addr, 4, time.Second)
	defer p.Close()
	if p.Size() != 4 {
		t.Fatalf("pool size %d", p.Size())
	}
	for i := 0; i < 12; i++ {
		if _, err := p.Get().Do(&Request{Verb: VerbMetrics}); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 4 {
		t.Fatalf("12 requests over a 4-client pool should open 4 connections, saw %d", got)
	}
}

func TestPoolMinimumSize(t *testing.T) {
	p := NewPool("127.0.0.1:1", 0, time.Second)
	defer p.Close()
	if p.Size() != 1 {
		t.Fatalf("pool size %d, want clamped to 1", p.Size())
	}
}

// restartableEcho is an echo server whose listener can be torn down and
// rebound on the same address, simulating a full server restart.
type restartableEcho struct {
	t    *testing.T
	addr string
	mu   sync.Mutex
	l    net.Listener
	open []net.Conn
}

func startRestartableEcho(t *testing.T) *restartableEcho {
	t.Helper()
	s := &restartableEcho{t: t}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = l.Addr().String()
	s.serve(l)
	t.Cleanup(s.stop)
	return s
}

func (s *restartableEcho) serve(l net.Listener) {
	s.mu.Lock()
	s.l = l
	s.mu.Unlock()
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.open = append(s.open, nc)
			s.mu.Unlock()
			go func() {
				c := NewConn(nc)
				for {
					req, err := c.ReadRequest()
					if err != nil {
						return
					}
					if err := c.WriteResponse(&Response{Err: req.Verb}); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// stop closes the listener and severs every accepted connection.
func (s *restartableEcho) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.l != nil {
		s.l.Close()
		s.l = nil
	}
	for _, nc := range s.open {
		nc.Close()
	}
	s.open = nil
}

func (s *restartableEcho) restart() {
	s.t.Helper()
	var l net.Listener
	var err error
	// The freed port can linger briefly; retry the bind.
	for i := 0; i < 50; i++ {
		l, err = net.Listen("tcp", s.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		s.t.Skipf("could not rebind %s: %v", s.addr, err)
	}
	s.serve(l)
}

// TestPoolReconnectAfterServerRestart kills the server (listener and live
// connections) and brings it back on the same address: every pooled client
// must transparently redial and the pool recover fully.
func TestPoolReconnectAfterServerRestart(t *testing.T) {
	s := startRestartableEcho(t)
	p := NewPool(s.addr, 3, time.Second)
	defer p.Close()
	for i := 0; i < 6; i++ {
		if _, err := p.Get().Do(&Request{Verb: VerbMetrics}); err != nil {
			t.Fatalf("pre-restart Do %d: %v", i, err)
		}
	}
	s.stop()
	s.restart()
	for i := 0; i < 6; i++ {
		resp, err := p.Get().Do(&Request{Verb: VerbMetrics})
		if err != nil {
			t.Fatalf("post-restart Do %d: %v", i, err)
		}
		if resp.Err != VerbMetrics {
			t.Fatalf("post-restart Do %d: %+v", i, resp)
		}
	}
}

// TestPoolConcurrentCheckout hammers one pool from many goroutines; Get is
// lock-free and each client serializes its own wire exchange, so all
// requests must succeed (run under -race in CI).
func TestPoolConcurrentCheckout(t *testing.T) {
	addr, conns := echoServer(t, 0)
	p := NewPool(addr, 4, time.Second)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := p.Get().Do(&Request{Verb: VerbMetrics}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 4 {
		t.Fatalf("pool should hold exactly 4 connections, server saw %d", got)
	}
}
