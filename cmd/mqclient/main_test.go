package main

import (
	"image/png"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/cluster"
	"mqsched/internal/geom"
	"mqsched/internal/netproto"
)

func TestParseWindow(t *testing.T) {
	got, err := parseWindow("1, 2,3 ,4")
	if err != nil {
		t.Fatal(err)
	}
	if got != [4]int64{1, 2, 3, 4} {
		t.Fatalf("parseWindow = %v", got)
	}
	for _, bad := range []string{"1,2,3", "1,2,3,4,5", "a,2,3,4", ""} {
		if _, err := parseWindow(bad); err == nil {
			t.Errorf("parseWindow(%q) should fail", bad)
		}
	}
}

// canned answers every request with one fixed response.
type canned netproto.Response

func (c canned) Answer(*netproto.Request, netproto.ConnInfo) *netproto.Response {
	resp := netproto.Response(c)
	return &resp
}

// serveCanned starts a server that answers everything with resp and returns
// a client for it.
func serveCanned(t *testing.T, resp netproto.Response) *netproto.Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go netproto.ServeHandler(l, canned(resp), func(string, ...any) {})
	c := netproto.NewClient(l.Addr().String(), time.Second)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestQueryChecksReplyImage: the reply is outside input. A reply whose pixel
// bytes do not fill its claimed dimensions, or whose dimensions are not what
// the request could have produced, is an error — not an index out of range,
// not a W×H allocation — and no file is written.
func TestQueryChecksReplyImage(t *testing.T) {
	req := &netproto.Request{Slide: "s", X0: 0, Y0: 0, X1: 16, Y1: 16, Zoom: 4, Op: "subsample"}
	for name, tc := range map[string]struct {
		resp netproto.Response
		want string
	}{
		"short pixels": {netproto.Response{Width: 4, Height: 4, Pixels: []byte{1, 2, 3}}, "3 pixel bytes"},
		"huge claim":   {netproto.Response{Width: 1 << 20, Height: 1 << 20, Pixels: []byte{1, 2, 3}}, "asked for at most 4x4"},
		"empty image":  {netproto.Response{Width: 0, Height: 4}, "asked for at most 4x4"},
	} {
		out := filepath.Join(t.TempDir(), "view.png")
		err := query(serveCanned(t, tc.resp), req, out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%s: a PNG was written for a bad reply", name)
		}
	}

	// A reply that fits is written out pixel for pixel.
	pix := make([]byte, 3*4*4)
	for i := range pix {
		pix[i] = byte(i)
	}
	out := filepath.Join(t.TempDir(), "view.png")
	if err := query(serveCanned(t, netproto.Response{Width: 4, Height: 4, Pixels: pix}), req, out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != 4 || b.Dy() != 4 {
		t.Fatalf("decoded %v, want 4x4", b)
	}
	r, g, b, a := img.At(1, 2).RGBA()
	i := 3 * (2*4 + 1)
	if byte(r>>8) != pix[i] || byte(g>>8) != pix[i+1] || byte(b>>8) != pix[i+2] || a>>8 != 0xff {
		t.Fatalf("pixel (1,2) = %d,%d,%d,%d, want %d,%d,%d,255", r>>8, g>>8, b>>8, a>>8, pix[i], pix[i+1], pix[i+2])
	}
}

// TestSlowLogPrintsEachQueryOnce polls the slow-query log twice, with more
// queries in between, straight from a server and through a router in front
// of two: every query's tree is printed once across the two polls, and the
// second poll prints only the queries that ran after the first.
func TestSlowLogPrintsEachQueryOnce(t *testing.T) {
	for _, backends := range []int{1, 2} {
		h, err := cluster.StartHarness(cluster.HarnessConfig{
			Backends: backends,
			Slides:   []mqsched.Slide{{Name: "a", Width: 512, Height: 512}, {Name: "b", Width: 512, Height: 512}, {Name: "c", Width: 512, Height: 512}, {Name: "d", Width: 512, Height: 512}},
			System:   mqsched.Config{Threads: 2, TimeScale: 1e-9, TraceSpans: true, SlowQueryThreshold: time.Nanosecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		addr := h.BackendAddrs[0]
		if backends > 1 {
			addr = h.Addr
		}
		c := netproto.NewClient(addr, time.Second)
		defer c.Close()
		// One slide per backend, so that a router's answer splices two logs.
		var slides []string
		at := map[string]bool{}
		for _, sl := range h.Systems[0].Datasets().Names() {
			if b, _, err := h.Router.Route(sl, geom.R(0, 0, 256, 256)); err == nil && !at[b] {
				at[b] = true
				slides = append(slides, sl)
			}
		}
		if len(slides) < backends {
			t.Fatal("no slide routes to every backend")
		}
		run := func(n int) {
			for i := 0; i < n; i++ {
				req := &netproto.Request{Slide: slides[i%len(slides)], X0: 0, Y0: 0, X1: 256, Y1: 256, Zoom: 2, Op: "subsample", OmitPixels: true}
				if resp, err := c.Do(req); err != nil || resp.Err != "" {
					t.Fatalf("query: %v %q", err, resp.Err)
				}
			}
		}
		heads := func(out string) []string {
			var hs []string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "slow query q") {
					hs = append(hs, line)
				}
			}
			return hs
		}

		run(3)
		var out strings.Builder
		prev, err := pollSlowLog(c, &out, nil)
		if err != nil {
			t.Fatal(err)
		}
		first := heads(out.String())
		run(2)
		out.Reset()
		if _, err := pollSlowLog(c, &out, prev); err != nil {
			t.Fatal(err)
		}
		second := heads(out.String())
		if len(first) != 3 || len(second) != 2 {
			t.Errorf("%d backend(s): printed %d trees, then %d; want 3, then 2:\n%q\n%q", backends, len(first), len(second), first, second)
		}
		seen := map[string]bool{}
		for _, hd := range append(first, second...) {
			if seen[hd] {
				t.Errorf("%d backend(s): %q printed twice", backends, hd)
			}
			seen[hd] = true
		}
		if !strings.Contains(out.String(), "server/query") {
			t.Errorf("%d backend(s): the printed trees lack their root span:\n%s", backends, out.String())
		}
	}
}
