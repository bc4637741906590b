// Command mqclient sends one Virtual Microscope query to a running mqserver
// (or an mqrouter) and writes the answer image as a PNG. The other two modes
// read the TRACE verb's Chrome trace_event JSON: -slowlog polls the
// slow-query log once a second and prints the span tree of each query it has
// not printed yet, until interrupted; -trace-dump writes the retained span
// ring to a file for chrome://tracing, Perfetto, or mqviz.
//
// Usage:
//
//	mqclient -addr localhost:9123 -slide slide1 -window 1024,1024,5120,5120 -zoom 4 -op average -o view.png
//	mqclient -addr localhost:9123 -slowlog
//	mqclient -addr localhost:9123 -trace-dump run.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"image"
	"image/png"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"mqsched/internal/geom"
	"mqsched/internal/netproto"
	"mqsched/internal/trace"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:9123", "server address")
		slide   = flag.String("slide", "slide1", "slide name")
		window  = flag.String("window", "0,0,4096,4096", "query window x0,y0,x1,y1 at base resolution")
		zoom    = flag.Int64("zoom", 4, "magnification reduction factor N")
		op      = flag.String("op", "subsample", "processing function: subsample or average")
		out     = flag.String("o", "view.png", "output PNG path ('' to skip)")
		slowlog = flag.Bool("slowlog", false, "print each new slow-query span tree of the server or router, polling once a second, instead of querying (needs mqserver -slowlog)")
		dump    = flag.String("trace-dump", "", "fetch the server's span ring as Chrome trace_event JSON, write it to this path, and exit ('-' for stdout)")
	)
	flag.Parse()

	coords, err := parseWindow(*window)
	if err != nil {
		log.Fatal(err)
	}
	if *zoom < 1 {
		log.Fatalf("-zoom %d: must be at least 1", *zoom)
	}

	c := netproto.NewClient(*addr, 0)
	defer c.Close()
	switch {
	case *dump != "":
		err = dumpTrace(c, *dump)
	case *slowlog:
		err = streamSlowLog(c, os.Stdout)
	default:
		err = query(c, &netproto.Request{
			Slide: *slide,
			X0:    coords[0], Y0: coords[1], X1: coords[2], Y1: coords[3],
			Zoom:       *zoom,
			Op:         *op,
			OmitPixels: *out == "",
		}, *out)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// query sends one query, prints the server's timings and, unless out is
// empty, writes the answer image there as a PNG.
func query(c *netproto.Client, req *netproto.Request, out string) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("server error: %s", resp.Err)
	}
	fmt.Printf("%dx%d image  response=%.1fms (wait %.1fms, exec %.1fms)  reused=%.0f%%\n",
		resp.Width, resp.Height, resp.ResponseMS, resp.WaitMS, resp.ExecMS, resp.ReusedFrac*100)
	if out == "" {
		return nil
	}
	img, err := imageOf(req, resp)
	if err != nil {
		return err
	}
	if err := writePNG(out, img); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// dumpTrace snapshots the server's span ring over the TRACE verb and writes
// the Chrome trace_event JSON to path.
func dumpTrace(c *netproto.Client, path string) error {
	data, err := c.TraceChromeDump()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes of trace JSON to %s\n", len(data), path)
	return nil
}

// streamSlowLog polls the slow-query log over the TRACE verb once a second
// and prints the span tree of each query that was not in the previous
// answer.
func streamSlowLog(c *netproto.Client, w io.Writer) error {
	var prev map[int64]bool
	for {
		var err error
		if prev, err = pollSlowLog(c, w, prev); err != nil {
			return err
		}
		time.Sleep(time.Second)
	}
}

// pollSlowLog fetches the slow-query log once, prints the tree of every
// query whose ID is not in prev, and returns the IDs this answer holds. A
// router's answer keeps its backends' query IDs apart, so the rule holds
// through it too.
func pollSlowLog(c *netproto.Client, w io.Writer, prev map[int64]bool) (map[int64]bool, error) {
	resp, err := c.Do(&netproto.Request{Verb: netproto.VerbTrace, SlowLog: true})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("server error: %s", resp.Err)
	}
	col, err := trace.ReadChrome(bytes.NewReader(resp.TraceJSON))
	if err != nil {
		return nil, err
	}
	trees := map[int64][]trace.Span{}
	var order []int64
	for _, s := range col.Spans {
		if trees[s.QueryID] == nil {
			order = append(order, s.QueryID)
		}
		trees[s.QueryID] = append(trees[s.QueryID], s)
	}
	held := make(map[int64]bool, len(order))
	for _, q := range order {
		held[q] = true
		if !prev[q] {
			fmt.Fprintf(w, "slow query q%d\n%s", q, trace.FormatTree(trees[q]))
		}
	}
	return held, nil
}

func parseWindow(s string) ([4]int64, error) {
	var out [4]int64
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return out, fmt.Errorf("bad window %q (want x0,y0,x1,y1)", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return out, fmt.Errorf("bad window coordinate %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// imageOf turns the reply's row-major RGB into an image, after checking it
// against the request: the server answers with the zoom-aligned window
// clipped to the slide, so the image is at most the aligned window's size,
// and it carries three bytes per pixel. Nothing is allocated for a reply
// that fails either check.
func imageOf(req *netproto.Request, resp *netproto.Response) (*image.RGBA, error) {
	maxW := geom.CeilDiv(req.X1, req.Zoom) - geom.FloorDiv(req.X0, req.Zoom)
	maxH := geom.CeilDiv(req.Y1, req.Zoom) - geom.FloorDiv(req.Y0, req.Zoom)
	w, h := resp.Width, resp.Height
	if w < 1 || h < 1 || w > maxW || h > maxH {
		return nil, fmt.Errorf("reply image is %dx%d, the request asked for at most %dx%d", w, h, maxW, maxH)
	}
	if int64(len(resp.Pixels)) != 3*w*h {
		return nil, fmt.Errorf("reply carries %d pixel bytes, a %dx%d RGB image has %d", len(resp.Pixels), w, h, 3*w*h)
	}
	img := image.NewRGBA(image.Rect(0, 0, int(w), int(h)))
	for i, o := 0, 0; i < len(resp.Pixels); i, o = i+3, o+4 {
		copy(img.Pix[o:o+3], resp.Pixels[i:i+3])
		img.Pix[o+3] = 0xff
	}
	return img, nil
}

func writePNG(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
