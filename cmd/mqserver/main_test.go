package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/metrics"
	"mqsched/internal/trace"
)

// TestParseSlides confirms the wiring of -slides: a spec mqsched.ParseSlides
// refuses fails flag parsing (main's FlagSet uses ExitOnError, making this
// exit 2), a good one replaces the default list.
func TestParseSlides(t *testing.T) {
	parse := func(args ...string) ([]mqsched.Slide, error) {
		fs := flag.NewFlagSet("mqserver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		specs := bindSlides(fs)
		err := fs.Parse(args)
		return *specs, err
	}
	if got, err := parse(); err != nil || len(got) != 3 || got[0] != (mqsched.Slide{Name: "slide1", Width: 16384, Height: 16384}) {
		t.Fatalf("default -slides = %+v, %v", got, err)
	}
	if got, err := parse("-slides", "a:100x200, b:300x400"); err != nil || len(got) != 2 || got[1] != (mqsched.Slide{Name: "b", Width: 300, Height: 400}) {
		t.Fatalf("-slides a:100x200, b:300x400 = %+v, %v", got, err)
	}
	for _, bad := range []string{"a:0x4096", "a:100", "a:100x200,b"} {
		if _, err := parse("-slides", bad); err == nil {
			t.Errorf("-slides %s should be a usage error", bad)
		}
	}
}

func TestMetricsMux(t *testing.T) {
	var c metrics.Counter
	c.Add(3)
	reg := metrics.NewRegistry()
	reg.PublishCounter("mqsched_test_total", "a counter", &c)

	srv := httptest.NewServer(metricsMux(reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP mqsched_test_total a counter",
		"# TYPE mqsched_test_total counter",
		"mqsched_test_total 3",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics body missing %q; got:\n%s", want, body)
		}
	}
}

func TestTraceAndPprofEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.NewTracer(func() time.Duration { return 0 }, trace.TracerOptions{})
	tr.StartRoot(1, "server", "query").Finish()

	srv := httptest.NewServer(metricsMux(reg, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", resp.StatusCode)
	}
	var ct trace.ChromeTrace
	if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
		t.Fatalf("/trace is not valid Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("/trace returned no events")
	}

	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", presp.StatusCode)
	}
}
