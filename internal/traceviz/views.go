package traceviz

import (
	"sort"

	"mqsched/internal/stats"
)

// DefaultBuckets is the time resolution views use when the caller passes a
// non-positive bucket count.
const DefaultBuckets = 120

// Heatmap is a resources × time-buckets busy-fraction matrix: Rows[i].Busy[j]
// is the fraction of bucket j that resource i spent busy (0..1). The client
// renders it directly as a canvas heatmap.
type Heatmap struct {
	Collection string       `json:"collection"`
	Buckets    int          `json:"buckets"`
	BucketSec  float64      `json:"bucket_sec"` // width of one bucket
	Span       float64      `json:"span"`       // total seconds covered
	Rows       []HeatmapRow `json:"rows"`
}

// HeatmapRow is one resource's utilization over time.
type HeatmapRow struct {
	Resource string    `json:"resource"`
	Class    string    `json:"class"` // "spindle" or "thread"
	Busy     []float64 `json:"busy"`
	BusySec  float64   `json:"busy_sec"` // total busy time
	Mean     float64   `json:"mean"`     // BusySec / Span
}

// Utilization computes the per-spindle and per-worker heatmap. Disk rows use
// the union of transfers per spindle (overlapping reads on one spindle count
// once — a spindle cannot be more than 100% busy); thread rows use the union
// of exec intervals per worker.
func Utilization(c *Collection, buckets int) *Heatmap {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	h := &Heatmap{Collection: c.Name, Buckets: buckets, Span: c.Span}
	if c.Span > 0 {
		h.BucketSec = c.Span / float64(buckets)
	}

	byResource := map[string][]seg{}
	for _, iv := range c.Intervals {
		if iv.Resource == "" {
			continue
		}
		if iv.Kind == KindDisk || iv.Kind == KindExec {
			byResource[iv.Resource] = append(byResource[iv.Resource], seg{iv.Start, iv.End})
		}
	}
	emit := func(class string, resources []string) {
		for _, res := range resources {
			union := mergeSegs(byResource[res])
			row := HeatmapRow{
				Resource: res,
				Class:    class,
				Busy:     bucketize(union, buckets, h.BucketSec),
				BusySec:  totalOf(union),
			}
			if c.Span > 0 {
				row.Mean = row.BusySec / c.Span
			}
			h.Rows = append(h.Rows, row)
		}
	}
	emit("spindle", c.Spindles)
	emit("thread", c.Threads)
	return h
}

// bucketize spreads a merged union over fixed-width buckets as busy
// fractions.
func bucketize(union []seg, buckets int, width float64) []float64 {
	out := make([]float64, buckets)
	for _, g := range union {
		accumulate(out, g, width)
	}
	for i, v := range out {
		out[i] = min(v, 1)
	}
	return out
}

// Timelines are the scheduler's load curves over time: how many queries were
// waiting and executing (time-averaged per bucket), how long the queries that
// left the queue in each bucket had waited, and arrival/completion counts.
type Timelines struct {
	Collection string    `json:"collection"`
	Buckets    int       `json:"buckets"`
	BucketSec  float64   `json:"bucket_sec"`
	Span       float64   `json:"span"`
	QueueDepth []float64 `json:"queue_depth"` // mean waiting queries per bucket
	Executing  []float64 `json:"executing"`   // mean in-flight queries per bucket
	WaitMean   []float64 `json:"wait_mean"`   // mean seconds waited, by queue-exit bucket
	Arrivals   []int     `json:"arrivals"`    // queries arriving per bucket
	Completes  []int     `json:"completes"`   // queries finishing per bucket
}

// ComputeTimelines derives the queue-depth and wait-time curves from the
// collection's wait and exec intervals.
func ComputeTimelines(c *Collection, buckets int) *Timelines {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	tl := &Timelines{
		Collection: c.Name, Buckets: buckets, Span: c.Span,
		QueueDepth: make([]float64, buckets),
		Executing:  make([]float64, buckets),
		WaitMean:   make([]float64, buckets),
		Arrivals:   make([]int, buckets),
		Completes:  make([]int, buckets),
	}
	if c.Span > 0 {
		tl.BucketSec = c.Span / float64(buckets)
	}
	// Concurrency curves: each interval contributes its bucket-overlap
	// fraction, so the value is the time-averaged number of concurrent
	// intervals, not a sampled instant.
	for _, iv := range c.Intervals {
		switch iv.Kind {
		case KindWait:
			accumulate(tl.QueueDepth, seg{iv.Start, iv.End}, tl.BucketSec)
		case KindExec:
			accumulate(tl.Executing, seg{iv.Start, iv.End}, tl.BucketSec)
		}
	}
	waitSum := make([]float64, buckets)
	waitN := make([]int, buckets)
	for _, iv := range c.Intervals {
		if iv.Kind != KindWait {
			continue
		}
		if b := bucketOf(iv.End, tl.BucketSec, buckets); b >= 0 {
			waitSum[b] += iv.Duration()
			waitN[b]++
		}
	}
	for i := range waitSum {
		if waitN[i] > 0 {
			tl.WaitMean[i] = waitSum[i] / float64(waitN[i])
		}
	}
	for _, q := range c.Queries {
		if b := bucketOf(q.Start, tl.BucketSec, buckets); b >= 0 {
			tl.Arrivals[b]++
		}
		if b := bucketOf(q.End, tl.BucketSec, buckets); b >= 0 {
			tl.Completes[b]++
		}
	}
	return tl
}

// accumulate adds a segment's per-bucket overlap fractions into out.
func accumulate(out []float64, g seg, width float64) {
	if width <= 0 || g.end <= g.start {
		return
	}
	first, last := int(g.start/width), int(g.end/width)
	for b := first; b <= last && b < len(out); b++ {
		if b < 0 {
			continue
		}
		lo, hi := float64(b)*width, float64(b+1)*width
		if overlap := min(g.end, hi) - max(g.start, lo); overlap > 0 {
			out[b] += overlap / width
		}
	}
}

// bucketOf maps an instant to its bucket, clamping the exact right edge of
// the collection into the last bucket.
func bucketOf(t, width float64, buckets int) int {
	if width <= 0 || t < 0 {
		return -1
	}
	b := int(t / width)
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

// StrategyBreakdown aggregates the queries of one ranking strategy: phase
// means and response-time percentiles.
type StrategyBreakdown struct {
	Strategy   string  `json:"strategy"`
	Queries    int     `json:"queries"`
	Truncated  int     `json:"truncated"`
	MeanPhases Phases  `json:"mean_phases"`
	MeanResp   float64 `json:"mean_response"`
	P50        float64 `json:"p50_response"`
	P95        float64 `json:"p95_response"`
	MaxResp    float64 `json:"max_response"`
	ReusedFrac float64 `json:"mean_reused_frac"`
}

// Breakdown decomposes latency per strategy: wait vs I/O vs compute vs reuse,
// with percentiles over complete (non-truncated) queries only — a truncated
// tree under-reports its phases and would bias the means.
func Breakdown(c *Collection) []StrategyBreakdown {
	type acc struct {
		phases    Phases
		resp      []float64
		reused    float64
		truncated int
		total     int
	}
	accs := map[string]*acc{}
	var names []string
	for _, q := range c.Queries {
		a := accs[q.Strategy]
		if a == nil {
			a = &acc{}
			accs[q.Strategy] = a
			names = append(names, q.Strategy)
		}
		a.total++
		if q.Truncated {
			a.truncated++
			continue
		}
		a.phases.Wait += q.Phases.Wait
		a.phases.IO += q.Phases.IO
		a.phases.Compute += q.Phases.Compute
		a.phases.Reuse += q.Phases.Reuse
		a.phases.Batch += q.Phases.Batch
		a.phases.Fanout += q.Phases.Fanout
		a.phases.Other += q.Phases.Other
		a.resp = append(a.resp, q.Response)
		a.reused += q.Reused
	}
	sort.Strings(names)
	out := make([]StrategyBreakdown, 0, len(names))
	for _, name := range names {
		a := accs[name]
		b := StrategyBreakdown{Strategy: name, Queries: a.total, Truncated: a.truncated}
		if n := len(a.resp); n > 0 {
			fn := float64(n)
			b.MeanPhases = Phases{
				Wait: a.phases.Wait / fn, IO: a.phases.IO / fn,
				Compute: a.phases.Compute / fn, Reuse: a.phases.Reuse / fn,
				Batch: a.phases.Batch / fn, Fanout: a.phases.Fanout / fn,
				Other: a.phases.Other / fn,
			}
			sort.Float64s(a.resp)
			for _, r := range a.resp {
				b.MeanResp += r
			}
			b.MeanResp /= fn
			b.P50 = stats.Percentile(a.resp, 50)
			b.P95 = stats.Percentile(a.resp, 95)
			b.MaxResp = a.resp[n-1]
			b.ReusedFrac = a.reused / fn
		}
		out = append(out, b)
	}
	return out
}
