// Package trace records, per query, a tree of timed spans across subsystems
// (server → sched wait → data store lookups → page space reads → per-spindle
// disk I/O → compute), each with key-value attributes. This package records
// spans, keeps the slow-query log, and writes and reads Chrome trace_event
// JSON (WriteChromeExport, ReadChrome); every view derived from spans — schedules,
// phase breakdowns, percentiles — lives in internal/traceviz.
//
// The design rules match the metrics registry:
//
//   - Instrumentation is nil-safe: a nil *Tracer hands out inert
//     SpanContexts, and every SpanContext method no-ops on the zero value,
//     so a subsystem built without tracing pays only a nil check (and zero
//     allocations) per event.
//   - Timestamps come from the runtime clock the Tracer was built with
//     (rt.Runtime.Now), never from wall-clock time.Now, so simulated runs
//     produce coherent virtual-time timelines.
//   - Finished spans land in a bounded ring buffer; the tracer never grows
//     without bound, the oldest spans are overwritten first.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// attrKind discriminates the typed Attr payload. Attrs avoid interface{}
// boxing so that constructing them on a disabled tracer's hot path does not
// allocate.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed key-value attribute attached to a span.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

// Str returns a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, kind: attrString, s: value} }

// I64 returns an integer attribute.
func I64(key string, value int64) Attr { return Attr{Key: key, kind: attrInt, i: value} }

// F64 returns a float attribute.
func F64(key string, value float64) Attr { return Attr{Key: key, kind: attrFloat, f: value} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if value {
		a.i = 1
	}
	return a
}

// Value returns the attribute's payload as an any (for JSON export).
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.i != 0
	}
	return a.s
}

// String renders key=value.
func (a Attr) String() string {
	switch a.kind {
	case attrInt:
		return a.Key + "=" + strconv.FormatInt(a.i, 10)
	case attrFloat:
		return a.Key + "=" + strconv.FormatFloat(a.f, 'g', 4, 64)
	case attrBool:
		return a.Key + "=" + strconv.FormatBool(a.i != 0)
	}
	return a.Key + "=" + a.s
}

// Span is one timed operation attributed to a query and a subsystem. Parent
// links spans into a per-query tree rooted at the server's "query" span
// (Parent == 0).
type Span struct {
	ID      uint64
	Parent  uint64
	QueryID int64
	// Subsystem is the component that did the work: "server", "sched",
	// "datastore", "pagespace", or "disk".
	Subsystem string
	// Op names the operation within the subsystem ("query", "wait",
	// "lookup", "read", "compute", ...).
	Op         string
	Start, End time.Duration
	Attrs      []Attr
}

// Duration is the span's elapsed time on the runtime clock.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Attr returns the last attribute with the given key (attributes appended at
// Finish override ones set at start).
func (s Span) Attr(key string) (Attr, bool) {
	for i := len(s.Attrs) - 1; i >= 0; i-- {
		if s.Attrs[i].Key == key {
			return s.Attrs[i], true
		}
	}
	return Attr{}, false
}

// AttrNum returns a numeric attribute as float64 (integers and booleans
// coerce), reporting false for string attributes and missing keys. Analysis
// layers use it because a round trip through Chrome JSON may turn an
// integral float attribute into an integer one.
func (s Span) AttrNum(key string) (float64, bool) {
	a, ok := s.Attr(key)
	if !ok {
		return 0, false
	}
	switch a.kind {
	case attrInt, attrBool:
		return float64(a.i), true
	case attrFloat:
		return a.f, true
	}
	return 0, false
}

// AttrStr returns a string attribute, reporting false for other kinds and
// missing keys.
func (s Span) AttrStr(key string) (string, bool) {
	a, ok := s.Attr(key)
	if !ok || a.kind != attrString {
		return "", false
	}
	return a.s, true
}

// TracerOptions configure a Tracer.
type TracerOptions struct {
	// Capacity bounds the finished-span ring buffer (default 16384). The
	// oldest spans are overwritten once the ring is full.
	Capacity int
	// SlowThreshold flags any root (query) span at least this slow into the
	// slow-query log. Zero disables the log. The log keeps the newest
	// entries whose trees together hold at most Capacity spans.
	SlowThreshold time.Duration
}

func (o TracerOptions) withDefaults() TracerOptions {
	if o.Capacity <= 0 {
		o.Capacity = 16384
	}
	return o
}

// Tracer records spans into a bounded ring buffer. Safe for concurrent use;
// a nil *Tracer discards everything at the cost of a nil check.
type Tracer struct {
	now  func() time.Duration
	opts TracerOptions

	nextID atomic.Uint64

	mu    sync.Mutex
	buf   []Span // ring storage; len(buf) == opts.Capacity
	next  int    // next write position
	total uint64 // finished spans ever recorded

	slow      []SlowEntry
	slowSpans int // spans held by the trees in slow
	slowSeq   int64
}

// NewTracer returns a tracer stamping spans with the given clock — pass the
// runtime's Now (rt.Runtime.Now) so simulated runs trace in virtual time.
func NewTracer(now func() time.Duration, opts TracerOptions) *Tracer {
	if now == nil {
		panic("trace: NewTracer requires a clock")
	}
	opts = opts.withDefaults()
	return &Tracer{
		now:  now,
		opts: opts,
		buf:  make([]Span, 0, opts.Capacity),
	}
}

// SpanContext is a handle on an in-flight span. The zero value is inert:
// every method no-ops, so instrumentation sites need no tracing-enabled
// branch. A SpanContext is owned by the process that started the span until
// Finish; Finish must be called exactly once.
type SpanContext struct {
	tr *Tracer
	s  *Span
}

// StartRoot begins a query's root span. Returns an inert context on a nil
// tracer.
func (t *Tracer) StartRoot(queryID int64, subsystem, op string, attrs ...Attr) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return t.start(0, queryID, subsystem, op, attrs)
}

func (t *Tracer) start(parent uint64, queryID int64, subsystem, op string, attrs []Attr) SpanContext {
	s := &Span{
		ID:        t.nextID.Add(1),
		Parent:    parent,
		QueryID:   queryID,
		Subsystem: subsystem,
		Op:        op,
		Start:     t.now(),
	}
	if len(attrs) > 0 {
		s.Attrs = append(s.Attrs, attrs...)
	}
	return SpanContext{tr: t, s: s}
}

// Active reports whether the context records anything.
func (sc SpanContext) Active() bool { return sc.tr != nil }

// QueryID returns the query the span is attributed to (0 on the zero value).
func (sc SpanContext) QueryID() int64 {
	if sc.s == nil {
		return 0
	}
	return sc.s.QueryID
}

// Child begins a span nested under sc, inheriting its query ID. On an inert
// context it returns another inert context.
func (sc SpanContext) Child(subsystem, op string, attrs ...Attr) SpanContext {
	if sc.tr == nil {
		return SpanContext{}
	}
	return sc.tr.start(sc.s.ID, sc.s.QueryID, subsystem, op, attrs)
}

// Annotate attaches attributes to the in-flight span.
func (sc SpanContext) Annotate(attrs ...Attr) {
	if sc.tr == nil {
		return
	}
	sc.s.Attrs = append(sc.s.Attrs, attrs...)
}

// Finish stamps the span's end time, attaches any final attributes, and
// commits it to the ring buffer. Root spans are additionally checked against
// the slow-query thresholds.
func (sc SpanContext) Finish(attrs ...Attr) {
	if sc.tr == nil {
		return
	}
	t, s := sc.tr, sc.s
	s.End = t.now()
	if len(attrs) > 0 {
		s.Attrs = append(s.Attrs, attrs...)
	}
	t.mu.Lock()
	if len(t.buf) < t.opts.Capacity {
		t.buf = append(t.buf, *s)
	} else {
		t.buf[t.next] = *s
	}
	t.next = (t.next + 1) % t.opts.Capacity
	t.total++
	if s.Parent == 0 {
		t.noteRootLocked(*s)
	}
	t.mu.Unlock()
}

// noteRootLocked captures a query's tree into the slow-query log when its
// root span breaches the threshold. The log is bounded like the ring, by
// spans: the oldest entries go until the trees left hold at most Capacity
// spans. A tree is copied out of the ring, so the newest entry always fits.
func (t *Tracer) noteRootLocked(root Span) {
	d := root.Duration()
	if t.opts.SlowThreshold <= 0 || d < t.opts.SlowThreshold {
		return
	}
	t.slowSeq++
	entry := SlowEntry{
		Seq:       t.slowSeq,
		QueryID:   root.QueryID,
		Response:  d,
		Threshold: t.opts.SlowThreshold,
		Tree:      t.queryTreeLocked(root.QueryID),
	}
	t.slow = append(t.slow, entry)
	t.slowSpans += len(entry.Tree)
	drop := 0
	for t.slowSpans > t.opts.Capacity {
		t.slowSpans -= len(t.slow[drop].Tree)
		drop++
	}
	if drop > 0 {
		t.slow = append(t.slow[:0], t.slow[drop:]...)
	}
}

// Len returns the number of spans currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns the number of spans evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Spans returns a copy of the ring's contents in finish order, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked()
}

func (t *Tracer) spansLocked() []Span {
	out := make([]Span, 0, len(t.buf))
	if len(t.buf) < t.opts.Capacity {
		// Ring not yet wrapped: buf is already oldest-first.
		return append(out, t.buf...)
	}
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// queryTreeLocked returns the spans attributed to one query, sorted parents
// before children (by start time, then ID). Spans already evicted from the
// ring are absent.
func (t *Tracer) queryTreeLocked(queryID int64) []Span {
	var out []Span
	for i := range t.buf {
		if t.buf[i].QueryID == queryID {
			out = append(out, t.buf[i])
		}
	}
	sortTree(out)
	return out
}

// sortTree orders spans by start time, breaking ties parent-first.
func sortTree(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

// SlowEntry is one slow-query log record: the query's full span tree as it
// stood when its root span finished.
type SlowEntry struct {
	// Seq increases by one per entry; poll SlowEntries with the last seen
	// Seq to stream new entries.
	Seq       int64
	QueryID   int64
	Response  time.Duration
	Threshold time.Duration
	Tree      []Span
}

// Format renders the entry as an indented span tree for logs.
func (e SlowEntry) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slow query q%d: response %v (threshold %v)\n",
		e.QueryID, e.Response.Round(time.Microsecond), e.Threshold.Round(time.Microsecond))
	b.WriteString(FormatTree(e.Tree))
	return b.String()
}

// SlowEntries returns the slow-query log entries with Seq > sinceSeq, oldest
// first. Pass 0 for everything still retained.
func (t *Tracer) SlowEntries(sinceSeq int64) []SlowEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SlowEntry
	for _, e := range t.slow {
		if e.Seq > sinceSeq {
			out = append(out, e)
		}
	}
	return out
}

// FormatTree renders one query's spans as an indented tree:
//
//	server/query 0s +12.3ms strategy=cf
//	  sched/wait 0s +1.1ms rank=42
//	  ...
//
// Spans whose parent is missing (evicted from the ring) are shown at the
// depth of their nearest retained ancestor.
func FormatTree(spans []Span) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	ordered := append([]Span(nil), spans...)
	sortTree(ordered)
	depth := map[uint64]int{}
	var base time.Duration
	for i, s := range ordered {
		if i == 0 {
			base = s.Start
		}
		d := 0
		if pd, ok := depth[s.Parent]; ok {
			d = pd + 1
		}
		depth[s.ID] = d
	}
	var b strings.Builder
	for _, s := range ordered {
		b.WriteString(strings.Repeat("  ", depth[s.ID]))
		fmt.Fprintf(&b, "%s/%s @%v +%v", s.Subsystem, s.Op,
			(s.Start - base).Round(time.Microsecond), s.Duration().Round(time.Microsecond))
		for _, a := range s.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
