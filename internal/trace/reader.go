package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// ChromeCollection is a trace collection read back from Chrome trace_event
// JSON — the inverse of WriteChromeExport, and the loading layer under
// internal/traceviz and cmd/mqviz. It round-trips everything the exporter
// emits: spans with IDs, parent links and typed attributes, the per-query
// truncation markers, and the trace_info metadata.
type ChromeCollection struct {
	// Spans are the reconstructed spans, ordered by (Start, ID) — a
	// deterministic order independent of the order events appear in the
	// file.
	Spans []Span
	// Truncated maps query IDs flagged by a "truncated" marker to their
	// orphan-span counts: those queries' trees are incomplete in this
	// collection (ring-buffer eviction mid-query, or spans still in flight
	// at export time).
	Truncated map[int64]int64
	// Dropped is the exporting tracer's ring-buffer eviction count (0 when
	// the file carries no trace_info event).
	Dropped uint64
	// Info is the exporter's identifying metadata (build version, Go
	// version, strategy set, ...).
	Info map[string]string
}

// ReadChrome parses Chrome trace_event JSON (the object format written by
// WriteChromeExport) back into spans. Events foreign to this
// exporter are tolerated: "X" events without a span_id get synthetic IDs,
// metadata events other than trace_info/truncated are ignored, and numeric
// args become integer attributes when they are integral, float attributes
// otherwise.
func ReadChrome(r io.Reader) (*ChromeCollection, error) {
	var ct ChromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ct); err != nil {
		return nil, fmt.Errorf("trace: reading Chrome trace: %w", err)
	}
	c := &ChromeCollection{Truncated: map[int64]int64{}, Info: map[string]string{}}

	// First pass: find the highest span ID so synthetic IDs never collide.
	var maxID uint64
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" {
			if id, ok := argUint(e.Args, "span_id"); ok && id > maxID {
				maxID = id
			}
		}
	}
	nextID := maxID

	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "X":
			s := Span{
				QueryID: e.Tid,
				Start:   durationOfMicros(e.Ts),
				End:     durationOfMicros(e.Ts + e.Dur),
			}
			s.Subsystem, s.Op = splitName(e.Name, e.Cat)
			if id, ok := argUint(e.Args, "span_id"); ok {
				s.ID = id
			} else {
				nextID++
				s.ID = nextID
			}
			s.Parent, _ = argUint(e.Args, "parent_id")
			s.Attrs = attrsOfArgs(e.Args)
			c.Spans = append(c.Spans, s)
		case "i", "I":
			if e.Name == ChromeTruncatedEvent {
				n, _ := argUint(e.Args, "orphan_spans")
				c.Truncated[e.Tid] += int64(n)
			}
		case "M":
			if e.Name == ChromeInfoEvent {
				for k, v := range e.Args {
					switch k {
					case "dropped":
						if d, ok := numOf(v); ok && d >= 0 {
							c.Dropped = uint64(d)
						}
					default:
						if s, ok := v.(string); ok {
							c.Info[k] = s
						}
					}
				}
			}
		}
	}
	sortTree(c.Spans)
	return c, nil
}

// splitName recovers subsystem and op from the exporter's "subsystem/op"
// event name, falling back to the category for foreign traces.
func splitName(name, cat string) (subsystem, op string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i], name[i+1:]
		}
	}
	if cat != "" {
		return cat, name
	}
	return "", name
}

// durationOfMicros converts a trace_event microsecond timestamp to the
// runtime-clock duration the spans were recorded with. Rounding (rather
// than truncating) keeps timestamps that survived the float64 µs encoding
// exactly round-trippable at nanosecond granularity.
func durationOfMicros(us float64) time.Duration {
	return time.Duration(math.Round(us * float64(time.Microsecond)))
}

// argUint extracts a non-negative integer argument (JSON numbers decode as
// float64).
func argUint(args map[string]any, key string) (uint64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	f, ok := numOf(v)
	if !ok || f < 0 || f != math.Trunc(f) {
		return 0, false
	}
	return uint64(f), true
}

func numOf(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	}
	return 0, false
}

// attrsOfArgs converts event args back into typed attributes, skipping the
// exporter's linkage keys. Keys are sorted so the reconstruction is
// deterministic regardless of JSON map iteration order; integral numbers
// become integer attrs (the exporter writes int64 attrs as JSON integers),
// everything else keeps its JSON type.
func attrsOfArgs(args map[string]any) []Attr {
	keys := make([]string, 0, len(args))
	for k := range args {
		if k == "span_id" || k == "parent_id" {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	attrs := make([]Attr, 0, len(keys))
	for _, k := range keys {
		switch v := args[k].(type) {
		case bool:
			attrs = append(attrs, Bool(k, v))
		case string:
			attrs = append(attrs, Str(k, v))
		case float64:
			if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
				attrs = append(attrs, I64(k, int64(v)))
			} else {
				attrs = append(attrs, F64(k, v))
			}
		default:
			attrs = append(attrs, Str(k, fmt.Sprint(v)))
		}
	}
	return attrs
}
