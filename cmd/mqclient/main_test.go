package main

import (
	"image/png"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
