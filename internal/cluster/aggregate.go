package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"mqsched/internal/netproto"
	"mqsched/internal/trace"
)

// answerMetrics aggregates the cluster's metrics: the router's own registry
// snapshot merged with every healthy backend's (counters and histograms
// sum; gauges keep the last backend's value, which is why per-backend
// gauges carry a backend label). One dead backend costs its share of the
// numbers, never the response.
func (r *Router) answerMetrics(req *netproto.Request) *netproto.Response {
	snap := r.reg.Snapshot()
	reached := 0
	for _, b := range r.backends {
		if !b.up.Load() {
			continue
		}
		resp, err := b.pool.Get().Do(&netproto.Request{Verb: netproto.VerbMetrics, MetricsSnapshot: true})
		if err != nil {
			b.errors.Inc()
			b.markDown(r.healthBase(), r.cfg.MaxBackoff, time.Now())
			continue
		}
		if resp.MetricsSnap == nil {
			r.cfg.Logf("cluster: backend %s: METRICS answered without a snapshot: %s", b.addr, resp.Err)
			continue
		}
		reached++
		snap.Merge(*resp.MetricsSnap)
	}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		return &netproto.Response{Err: err.Error()}
	}
	resp := &netproto.Response{Metrics: sb.String()}
	if req.MetricsSnapshot {
		resp.MetricsSnap = &snap
	}
	if reached == 0 && len(r.healthyBackends()) == 0 {
		// Still answer with the router's own registry, but be honest that
		// the cluster view is empty.
		resp.Err = ErrNoBackends.Error()
	}
	return resp
}

func (r *Router) healthyBackends() []*backend {
	var out []*backend
	for _, b := range r.backends {
		if b.up.Load() {
			out = append(out, b)
		}
	}
	return out
}

// answerTrace aggregates span data. A Chrome export request concatenates
// every backend's export into one document with per-backend process rows; a
// query-tree request fans out and returns the first backend that retains
// the query; a slow-log request concatenates the backends' logs under
// per-backend headers.
func (r *Router) answerTrace(req *netproto.Request) *netproto.Response {
	if req.TraceChrome && req.QueryID == 0 {
		return r.answerTraceChrome()
	}
	if req.QueryID != 0 {
		var firstErr string
		for _, b := range r.healthyBackends() {
			resp, err := b.pool.Get().Do(req)
			if err != nil {
				continue
			}
			if resp.Err == "" {
				return resp
			}
			if firstErr == "" {
				firstErr = resp.Err
			}
		}
		if firstErr == "" {
			firstErr = ErrNoBackends.Error()
		}
		return &netproto.Response{Err: firstErr}
	}
	// Slow-query logs: concatenate under headers. Sequence numbers are
	// per-backend, so the resume cursor is the max across them —
	// conservative (a slower backend's entries may repeat on the next
	// poll), never lossy for the fastest.
	var sb strings.Builder
	var seq int64
	answered := false
	for i, b := range r.healthyBackends() {
		resp, err := b.pool.Get().Do(req)
		if err != nil || resp.Err != "" {
			continue
		}
		answered = true
		if resp.Trace != "" {
			fmt.Fprintf(&sb, "== backend%d %s ==\n%s", i, b.addr, resp.Trace)
		}
		if resp.TraceSeq > seq {
			seq = resp.TraceSeq
		}
	}
	if !answered {
		return &netproto.Response{Err: "cluster: no backend answered the trace request"}
	}
	return &netproto.Response{Trace: sb.String(), TraceSeq: seq}
}

// Per-backend offsets keeping query IDs (Chrome tids) and span IDs disjoint
// across the merged document: backend i's query q becomes q + i*tidStride,
// and its span s becomes s + i*spanStride, preserving parent links within
// each backend's trees.
const (
	tidStride  = int64(1) << 20
	spanStride = uint64(1) << 40
)

// answerTraceChrome fetches every healthy backend's Chrome export and
// splices them into one trace: backend i's events move to pid i+1, a
// process_name metadata row names it after its address, and query/span IDs
// are offset per backend so trees never collide. mqviz and Perfetto load
// the result as one cluster-wide timeline.
func (r *Router) answerTraceChrome() *netproto.Response {
	out := trace.ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []trace.ChromeEvent{}}
	answered := false
	for i, b := range r.backends {
		if !b.up.Load() {
			continue
		}
		resp, err := b.pool.Get().Do(&netproto.Request{Verb: netproto.VerbTrace, TraceChrome: true})
		if err != nil || resp.Err != "" {
			continue
		}
		var ct trace.ChromeTrace
		if err := json.Unmarshal(resp.TraceJSON, &ct); err != nil {
			r.cfg.Logf("cluster: backend %s: bad Chrome export: %v", b.addr, err)
			continue
		}
		answered = true
		pid := int64(i + 1)
		for _, e := range ct.TraceEvents {
			e.Pid = pid
			e.Tid += tidStride * int64(i)
			shiftArg(e.Args, "span_id", spanStride*uint64(i))
			shiftArg(e.Args, "parent_id", spanStride*uint64(i))
			out.TraceEvents = append(out.TraceEvents, e)
		}
		out.TraceEvents = append(out.TraceEvents, trace.ChromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  pid,
			Args: map[string]any{"name": fmt.Sprintf("backend%d %s", i, b.addr)},
		})
	}
	if !answered {
		return &netproto.Response{Err: "cluster: no backend answered the trace request"}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return &netproto.Response{Err: err.Error()}
	}
	return &netproto.Response{TraceJSON: append(buf, '\n')}
}

// shiftArg offsets one numeric arg in place (JSON numbers unmarshal as
// float64; span IDs stay far below 2^53, so the addition is exact).
func shiftArg(args map[string]any, key string, off uint64) {
	if off == 0 || args == nil {
		return
	}
	if f, ok := args[key].(float64); ok {
		args[key] = f + float64(off)
	}
}
