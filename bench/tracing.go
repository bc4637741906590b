package main

import (
	"os"
	"path/filepath"
	"time"

	"mqsched"
	"mqsched/internal/trace"
	"mqsched/internal/traceviz"
)

// traceCapacity bounds every span ring of a traced pass; trace.dropped says
// whether a pass outgrew it.
const traceCapacity = 1 << 20

// clientStrategy labels the harness's own root spans, so that mqviz and
// traceviz.Breakdown keep the client side apart from the server's strategy.
const clientStrategy = "bench-client"

// clientTrace records the harness's side of each query — issue, wire (or
// wait, in process), reply — as one more span tree per query, on the
// harness's clock. A nil *clientTrace records nothing.
type clientTrace struct{ tr *trace.Tracer }

func newClientTrace(epoch time.Time) *clientTrace {
	clock := func() time.Duration { return time.Since(epoch) }
	return &clientTrace{tr: trace.NewTracer(clock, trace.TracerOptions{Capacity: traceCapacity})}
}

type clientSpan struct{ root, cur trace.SpanContext }

func (ct *clientTrace) start(i int) *clientSpan {
	if ct == nil {
		return nil
	}
	return &clientSpan{root: ct.tr.StartRoot(int64(i)+1, "bench", trace.OpQuery,
		trace.Str(trace.AttrStrategy, clientStrategy))}
}

// phase closes the span of the phase that was running and opens the next.
func (s *clientSpan) phase(name string) {
	if s == nil {
		return
	}
	s.cur.Finish()
	s.cur = s.root.Child("bench", name)
}

func (s *clientSpan) finish() {
	if s == nil {
		return
	}
	s.cur.Finish()
	s.root.Finish()
}

// mergeSpans puts the harness's spans and every system's spans on the
// harness's time line, in one ID space: system k's span and query IDs are
// moved into a range of their own, and its clock is shifted by offsets[k].
func mergeSpans(ct *clientTrace, systems []*mqsched.System, offsets []time.Duration) ([]trace.Span, uint64) {
	spans := ct.tr.Spans()
	dropped := ct.tr.Dropped()
	for k, sys := range systems {
		idBase := uint64(k+1) << 40
		queryBase := int64(k+1) * 100_000_000
		for _, s := range sys.Spans().Spans() {
			s.ID += idBase
			if s.Parent != 0 {
				s.Parent += idBase
			}
			s.QueryID += queryBase
			s.Start += offsets[k]
			s.End += offsets[k]
			spans = append(spans, s)
		}
		dropped += sys.Spans().Dropped()
	}
	return spans, dropped
}

// spanMetrics reduces a traced pass to the S-sourced layer metrics: the mean
// per-query phase times traceviz.Breakdown attributes to each layer, over the
// server-side span trees only.
func spanMetrics(name string, spans []trace.Span, dropped uint64, out map[string]float64) {
	c := traceviz.LoadSpans(name, spans, nil)
	var queries, io, compute, reuse float64
	for _, b := range traceviz.Breakdown(c) {
		if b.Strategy == clientStrategy {
			continue
		}
		n := float64(b.Queries - b.Truncated)
		queries += n
		io += b.MeanPhases.IO * n
		compute += b.MeanPhases.Compute * n
		reuse += b.MeanPhases.Reuse * n
	}
	var disk float64
	for _, iv := range c.Intervals {
		if iv.Kind == traceviz.KindDisk {
			disk += iv.Duration()
		}
	}
	out["datastore.reuse_ms_mean"] = ratio(reuse*1e3, queries)
	out["pagespace.io_ms_mean"] = ratio(io*1e3, queries)
	out["disk.disk_ms_mean"] = ratio(disk*1e3, queries)
	out["vm.compute_ms_mean"] = ratio(compute*1e3, queries)
	out["trace.spans_per_query"] = ratio(float64(len(spans)), queries)
	out["trace.dropped"] = float64(dropped)
}

// writeChrome saves a traced pass as Chrome trace_event JSON, the format
// cmd/mqviz, chrome://tracing and Perfetto load.
func writeChrome(path string, spans []trace.Span, dropped uint64, info map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeExport(f, trace.ChromeExport{Spans: spans, Dropped: dropped, Info: info}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
