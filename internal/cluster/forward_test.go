package cluster

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/geom"
	"mqsched/internal/netproto"
	"mqsched/internal/vm"
)

// window768k is the i-th of a row of disjoint windows whose subsampled image
// is 512 x 512 RGB: 768 KB, more than a loopback socket buffers, so the
// router's write to a client is still going on while the next reply arrives.
func window768k(slide string, i int64) (*netproto.Request, vm.Meta) {
	w := geom.R(i*2048, 0, i*2048+1024, 1024)
	return &netproto.Request{Slide: slide, X0: w.X0, Y0: w.Y0, X1: w.X1, Y1: w.Y1, Zoom: 2, Op: "subsample"},
		vm.NewMeta(slide, w, 2, vm.Subsample)
}

// TestRouterForwardsPixelsIntact is the test for a forwarded payload's buffer
// going back to the pool too early: two clients ask the router for windows
// with different pixels at once, every reply is the same size (so a recycled
// buffer fits the next reply exactly), and every one must equal the oracle.
func TestRouterForwardsPixelsIntact(t *testing.T) {
	// On one processor sync.Pool hands a buffer that one goroutine put back
	// to the very next Get, whoever calls it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := startTestHarness(t, 2, Config{})
	const windows, rounds = 4, 40 // 2 clients x 160 queries
	var wg sync.WaitGroup
	for ci, slide := range []string{"s1", "s2"} {
		reqs := make([]*netproto.Request, windows)
		want := make([][]byte, windows)
		for i := range reqs {
			var m vm.Meta
			reqs[i], m = window768k(slide, int64(i+windows*ci))
			want[i] = vm.RenderOracle(m)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := netproto.NewClient(h.Addr, 0)
			defer c.Close()
			for n := 0; n < windows*rounds; n++ {
				resp, err := c.Do(reqs[n%windows])
				if err != nil || resp.Err != "" {
					t.Errorf("%s query %d: %v %q", slide, n, err, resp.Err)
					return
				}
				if !bytes.Equal(resp.Pixels, want[n%windows]) {
					t.Errorf("%s query %d: pixels differ from the oracle", slide, n)
					return
				}
			}
		}()
	}

	wg.Wait()

	// A buffer released before its write is over shows only while the write
	// is blocked, and loopback sockets buffer megabytes. So: 12 MB replies,
	// and a viewer with a small receive window that pauses before it reads,
	// which leaves the router's write to it half done while another
	// client's replies of the same size pass through.
	big := func(i int64) (*netproto.Request, []byte) {
		w := geom.R(i*4096, 8192, i*4096+2048, 8192+2048)
		return &netproto.Request{Slide: "s1", X0: w.X0, Y0: w.Y0, X1: w.X1, Y1: w.Y1, Zoom: 1, Op: "subsample"},
			vm.RenderOracle(vm.NewMeta("s1", w, 1, vm.Subsample))
	}
	slowReq, slowWant := big(0)
	fastReq, fastWant := big(1)
	nc, err := net.Dial("tcp", h.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	slow := netproto.NewConn(nc)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := netproto.NewClient(h.Addr, 0)
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := c.Do(fastReq)
			if err != nil || resp.Err != "" || !bytes.Equal(resp.Pixels, fastWant) {
				t.Errorf("fast viewer beside the slow one: %v, or pixels differ from the oracle", err)
				return
			}
		}
	}()
	for n := 0; n < 4; n++ {
		if err := slow.WriteRequest(slowReq); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		resp, err := slow.ReadResponse()
		if err != nil || resp.Err != "" {
			t.Fatalf("slow viewer query %d: %v %+v", n, err, resp)
		}
		if !bytes.Equal(resp.Pixels, slowWant) {
			t.Fatalf("slow viewer query %d: pixels differ from the oracle", n)
		}
	}
	close(stop)
	wg.Wait()
	if st := h.Router.Stats(); st.Errors != 0 {
		t.Fatalf("router errors: %+v", st)
	}
}

// TestRoutedQueryAllocBudget holds a routed 768 KB query to what it has to
// allocate in one process: the backend's result blob and the client's own
// copy of the pixels. The router's copy is a recycled buffer. Through gob it
// was 3.9 MB.
func TestRoutedQueryAllocBudget(t *testing.T) {
	h, err := StartHarness(HarnessConfig{
		Backends: 2,
		Slides:   []mqsched.Slide{{Name: "s1", Width: 4096, Height: 4096}},
		System:   mqsched.Config{Threads: 2, TimeScale: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := netproto.NewClient(h.Addr, 0)
	defer c.Close()
	query := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			req, _ := window768k("s1", int64(i%2))
			resp, err := c.Do(req)
			if err != nil || resp.Err != "" || len(resp.Pixels) != 512*512*3 {
				t.Fatalf("query %d: %v %q, %d pixel bytes", i, err, resp.Err, len(resp.Pixels))
			}
		}
	}
	query(4) // pages resident, connections dialed, gob types exchanged
	// Under -race sync.Pool drops a quarter of what is put back, 192 KB a
	// query on average; over this many queries the average stays in budget.
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	query(n)
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f KB allocated per routed 768 KB query", perQuery/1024)
	if perQuery > 1.8*(1<<20) {
		t.Fatalf("a routed 768 KB query allocates %.0f KB, budget 1843 KB", perQuery/1024)
	}
}
