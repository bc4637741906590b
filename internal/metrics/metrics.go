// Package metrics is a small, dependency-free registry of atomic counters,
// gauges, and fixed-bucket histograms — the unified observability layer under
// the Data Store, Page Space, scheduling graph, disk farm, and query server.
// The paper's evaluation (§5) is driven entirely by internal counters (cache
// reuse bytes, merged I/O requests, per-strategy response times); this
// package gives those counters one queryable surface instead of per-package
// Stats structs and ad-hoc prints.
//
// Design rules:
//
//   - A subsystem owns its metrics: Counter and Gauge are zero-value-ready
//     atomics it embeds (NewHistogram builds a histogram), each event is
//     counted once there, and the subsystem's Stats() reads the same values.
//     The registry publishes them by name (PublishCounter, PublishGauge,
//     PublishHistogram, and CounterFunc/GaugeFunc for derived values); it
//     does not hold a second copy. State that code reads to make decisions
//     (a byte budget, a queue length) is never a registry value — it stays
//     private and is published through a gauge.
//   - Updates are lock-free (sync/atomic); registration takes the registry
//     lock and is meant for construction time.
//   - Every metric type no-ops on a nil receiver and a nil *Registry
//     publishes nothing, so a subsystem assembled on its own (a unit test, a
//     probe) counts the same way without one.
//   - Snapshots are mergeable (for aggregating runs and cluster backends).
//
// Exposition: WritePrometheus renders the Prometheus text format served by
// cmd/mqserver's /metrics endpoint and the netproto METRICS verb; Summary
// renders an aligned table for cmd/mqbench end-of-run reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is the metric family type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String implements fmt.Stringer (Prometheus TYPE names).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing integer counter. The zero value is
// ready to use; all methods no-op on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (d must be >= 0 for the counter to stay monotonic).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value. The zero value is ready; methods
// no-op on nil.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: observation counts per upper
// bound plus a +Inf overflow bucket, a running sum, and a total count.
// Methods no-op on a nil receiver.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (strictly increasing; a +Inf bucket is implicit).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloatBits(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefaultLatencyBuckets suit end-to-end query latencies in seconds, covering
// sub-millisecond real-runtime queries through the paper's tens-of-seconds
// simulated responses.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250,
}

// DefaultSizeBuckets suit byte sizes (pages through whole-slide results).
var DefaultSizeBuckets = []float64{
	4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Registry is a named collection of metric families. The zero value is not
// usable; construct with NewRegistry. On a nil *Registry every registration
// method does nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       Kind
	bounds     []float64 // histograms only

	series map[string]*series // keyed by label signature
}

type series struct {
	labels []Label

	ctr  *Counter
	gge  *Gauge
	fn   func() float64
	hist *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// GaugeFunc registers a callback gauge: each snapshot or exposition calls f
// for the current value. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.seriesFor(name, help, KindGauge, nil, labels, func(s *series) { s.fn = f })
}

// PublishCounter exposes c, a counter its subsystem owns, as the series
// name{labels}, creating the family on first use. It panics if name is
// already registered with a different kind. Publishing over an existing
// series replaces what it shows.
func (r *Registry) PublishCounter(name, help string, c *Counter, labels ...Label) {
	r.seriesFor(name, help, KindCounter, nil, labels, func(s *series) { s.ctr = c })
}

// PublishGauge is PublishCounter for a gauge.
func (r *Registry) PublishGauge(name, help string, g *Gauge, labels ...Label) {
	r.seriesFor(name, help, KindGauge, nil, labels, func(s *series) { s.gge = g })
}

// PublishHistogram is PublishCounter for a histogram; every series of one
// family must have equal bounds.
func (r *Registry) PublishHistogram(name, help string, h *Histogram, labels ...Label) {
	r.seriesFor(name, help, KindHistogram, h.bounds, labels, func(s *series) { s.hist = h })
}

// CounterFunc registers a callback counter: a monotonic series derived from
// a value its owner keeps in another unit (integer nanoseconds shown as
// seconds), or keeps under a lock of its own that f takes. Each snapshot or
// exposition calls f. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.seriesFor(name, help, KindCounter, nil, labels, func(s *series) { s.fn = f })
}

// seriesFor locates or creates the family and series and runs init on the
// series with the registry lock held, so concurrent registrations see one
// consistent series. On a nil registry it does nothing: this is the one
// place the registration methods' nil-safety lives.
func (r *Registry) seriesFor(name, help string, kind Kind, bounds []float64, labels []Label, init func(*series)) {
	if r == nil {
		return
	}
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{
			name:   name,
			help:   help,
			kind:   kind,
			bounds: append([]float64(nil), bounds...),
			series: map[string]*series{},
		}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %q registered as %v, requested as %v", name, fam.kind, kind))
	} else if kind == KindHistogram && !equalBounds(fam.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %q bounds mismatch: %v vs %v", name, fam.bounds, bounds))
	}
	sig := signature(labels)
	s := fam.series[sig]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		fam.series[sig] = s
	}
	init(s)
}

// addFloatBits atomically adds d to the float64 stored as bits in b.
func addFloatBits(b *atomic.Uint64, d float64) {
	for {
		old := b.Load()
		upd := math.Float64bits(math.Float64frombits(old) + d)
		if b.CompareAndSwap(old, upd) {
			return
		}
	}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		letter := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// signature is a canonical key for a label set (order-independent).
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := ""
	for _, l := range ls {
		sig += l.Key + "\x00" + l.Value + "\x01"
	}
	return sig
}
