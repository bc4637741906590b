package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ChromeEvent is one Chrome trace_event record. The exporter emits complete
// ("X") duration events — one per span — plus metadata ("M") events naming
// each query's row, in the JSON Object Format loadable by chrome://tracing
// and Perfetto (ui.perfetto.dev).
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Ts   float64        `json:"ts"`          // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace_event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePid groups every span under one synthetic process row; queries are
// the threads within it.
const chromePid = 1

// Names of the synthetic (non-span) events the exporter emits alongside the
// "X" duration events. Readers (ReadChrome, internal/traceviz) key off them.
const (
	// ChromeTruncatedEvent is the per-query instant event marking that the
	// query's exported tree is incomplete: at least one retained span
	// references a parent that is absent (still in flight at export time, or
	// evicted from the ring buffer mid-query). Without it, orphan child
	// spans would be indistinguishable from a complete tree — the eviction
	// would be silent.
	ChromeTruncatedEvent = "truncated"
	// ChromeInfoEvent is the collection-wide metadata event carrying the
	// tracer's eviction count and the exporter's info map (build version, Go
	// version, strategy set, ...).
	ChromeInfoEvent = "trace_info"
)

// chromeTraceOf converts spans to the Chrome trace_event object: each span
// becomes a complete event with ts/dur in microseconds of runtime-clock
// time, cat = subsystem, tid = query ID (so Perfetto renders one row per
// query with subsystem spans nested by time), and args = span attributes
// plus the span/parent IDs.
//
// Queries whose trees are incomplete — a span's parent is missing from the
// export, either because the ring buffer evicted it mid-query or because it
// was still unfinished at export time — additionally get a "truncated"
// instant event (ph "i") carrying the orphan count, stamped at the query's
// earliest exported span.
func chromeTraceOf(spans []Span) ChromeTrace {
	ct := ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	queries := map[int64]bool{}
	present := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	type orphanInfo struct {
		count int64
		first float64 // earliest orphan ts, microseconds
	}
	orphans := map[int64]*orphanInfo{}
	for _, s := range spans {
		args := make(map[string]any, len(s.Attrs)+2)
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		args["span_id"] = s.ID
		if s.Parent != 0 {
			args["parent_id"] = s.Parent
		}
		ts := float64(s.Start) / float64(time.Microsecond)
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: s.Subsystem + "/" + s.Op,
			Cat:  s.Subsystem,
			Ph:   "X",
			Ts:   ts,
			Dur:  float64(s.Duration()) / float64(time.Microsecond),
			Pid:  chromePid,
			Tid:  s.QueryID,
			Args: args,
		})
		queries[s.QueryID] = true
		if s.Parent != 0 && !present[s.Parent] {
			o := orphans[s.QueryID]
			if o == nil {
				o = &orphanInfo{first: ts}
				orphans[s.QueryID] = o
			}
			o.count++
			if ts < o.first {
				o.first = ts
			}
		}
	}
	ids := make([]int64, 0, len(queries))
	for id := range queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  chromePid,
			Tid:  id,
			Args: map[string]any{"name": fmt.Sprintf("q%d", id)},
		})
		if o := orphans[id]; o != nil {
			ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
				Name: ChromeTruncatedEvent,
				Ph:   "i",
				S:    "t", // thread-scoped: the marker belongs to this query's row
				Ts:   o.first,
				Pid:  chromePid,
				Tid:  id,
				Args: map[string]any{"orphan_spans": o.count},
			})
		}
	}
	return ct
}

// ChromeExport bundles spans with collection-wide metadata for export:
// Dropped is the tracer's ring-buffer eviction count, Info carries
// identifying key-values (build version, strategy set, capture source).
// Both land in a "trace_info" metadata event that readers surface, so a
// collection records how it was captured and how much is missing.
type ChromeExport struct {
	Spans   []Span
	Dropped uint64
	Info    map[string]string
}

// WriteChromeExport writes an export bundle as Chrome trace_event JSON: the
// spans' events (chromeTraceOf) plus the trace_info metadata event. It is
// the one Chrome writer.
func WriteChromeExport(w io.Writer, ex ChromeExport) error {
	ct := chromeTraceOf(ex.Spans)
	args := make(map[string]any, len(ex.Info)+1)
	args["dropped"] = ex.Dropped
	for k, v := range ex.Info {
		args[k] = v
	}
	ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
		Name: ChromeInfoEvent,
		Ph:   "M",
		Pid:  chromePid,
		Args: args,
	})
	return json.NewEncoder(w).Encode(ct)
}

// WriteChromeInfo writes the tracer's current ring contents as Chrome
// trace_event JSON, with a trace_info event carrying the eviction count and
// info (build version, strategy set, ...; may be nil). On a nil tracer it
// writes an empty (but valid) trace.
func (t *Tracer) WriteChromeInfo(w io.Writer, info map[string]string) error {
	return WriteChromeExport(w, ChromeExport{Spans: t.Spans(), Dropped: t.Dropped(), Info: info})
}
