package main

import (
	"flag"
	"io"
	"log"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/cluster"
	"mqsched/internal/netproto"
)

func TestSplitBackends(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string // nil: a usage error
	}{
		{"h1:9123", []string{"h1:9123"}},
		{"h1:9123,h2:9123", []string{"h1:9123", "h2:9123"}},
		{" h1:9123 , h2:9123 ", []string{"h1:9123", "h2:9123"}},
		{"", nil},
		{"  ", nil},
		{"h1:9123,", nil},
		{",h1:9123", nil},
		{"h1:9123, ,h2:9123", nil},
	} {
		got, err := splitBackends(tc.in)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBackends(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
}

// TestRouterBootsAndAnswers runs main itself against one live backend: the
// flags reach cluster.Config, the listener comes up, PING is answered by the
// router and a query by the backend behind it. main has no way to stop; its
// goroutine lasts as long as the test binary.
func TestRouterBootsAndAnswers(t *testing.T) {
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Backends: 1,
		Slides:   []mqsched.Slide{{Name: "s", Width: 2048, Height: 2048}},
		System:   mqsched.Config{Threads: 2, TimeScale: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// A port that was free a moment ago: main takes -addr, not a listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	log.SetOutput(io.Discard)
	flag.CommandLine = flag.NewFlagSet("mqrouter", flag.ExitOnError) // main declares its flags on it
	os.Args = []string{"mqrouter", "-addr", addr, "-metrics", "", "-backends", h.BackendAddrs[0], "-cell", "2048", "-spill-depth", "2"}
	go main()

	c := netproto.NewClient(addr, time.Second)
	defer c.Close()
	var resp *netproto.Response
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err = c.Do(&netproto.Request{Verb: netproto.VerbPing}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mqrouter did not come up on %s: %v", addr, err)
		}
	}
	if resp.Err != "" || resp.Ping == nil || resp.Ping.Role != "router" {
		t.Fatalf("PING = %+v (ping %+v)", resp, resp.Ping)
	}
	resp, err = c.Do(&netproto.Request{Slide: "s", X1: 512, Y1: 512, Zoom: 4, Op: "subsample"})
	if err != nil || resp.Err != "" || resp.Width != 128 || resp.Height != 128 || len(resp.Pixels) != 3*128*128 {
		t.Fatalf("QUERY through the router: %v, %+v", err, resp)
	}
	if n := h.Systems[0].Stats().Server.Completed; n != 1 {
		t.Fatalf("the backend completed %d queries, want 1", n)
	}
}
