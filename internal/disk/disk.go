// Package disk models the data sources: a farm of disks holding the
// datasets' pages, striped round-robin. Service time per page is a
// positioning cost plus transfer time; positioning is cheaper when the
// request is near-sequential with the previous request served by the same
// disk — this is what makes interleaved access streams from many concurrent
// queries slower per page than a single scanning query, and it produces the
// I/O saturation past the optimal thread count seen in Figure 4.
//
// Each spindle serves under one of two disciplines (Config.Sched):
//
//   - SchedFIFO (the paper's behaviour): one page per request, served in
//     strict arrival order. Positioning is priced at dispatch time — when the
//     request reaches the head of the disk queue — via Station.ServeWith, so
//     the sequentiality and stream estimates always reflect actual service
//     order (under FIFO the two orders coincide on the simulated runtime,
//     keeping the paper's figures bit-identical).
//
//   - SchedElevator: requests enter a per-disk dispatch queue. A dispatcher
//     reorders pending requests in elevator/SCAN order by (dataset, page
//     index), merges adjacent and duplicate page requests into a single
//     multi-page transfer billed one positioning cost plus the combined
//     transfer time, and bounds reordering with a starvation deadline
//     (Config.MaxDelay dispatches) so no request is bypassed indefinitely.
//     This implements the Page Space Manager contract of paper §2 —
//     "requests for overlapping and neighboring pages are reordered, merged,
//     and duplicate requests are eliminated" — at the spindle, where the
//     seek savings are actually realized.
package disk

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/metrics"
	"mqsched/internal/rt"
	"mqsched/internal/trace"
)

// Sched selects the per-spindle service discipline.
type Sched int

const (
	// SchedFIFO serves one page per request in arrival order (the paper's
	// model).
	SchedFIFO Sched = iota
	// SchedElevator reorders and merges pending requests per spindle.
	SchedElevator
)

// String renders the discipline for logs and flags.
func (s Sched) String() string {
	if s == SchedElevator {
		return "elevator"
	}
	return "fifo"
}

// ParseSched parses a -io-sched flag value.
func ParseSched(s string) (Sched, error) {
	switch s {
	case "", "fifo":
		return SchedFIFO, nil
	case "elevator":
		return SchedElevator, nil
	}
	return SchedFIFO, fmt.Errorf("disk: unknown scheduler %q (want fifo or elevator)", s)
}

// Config describes the farm.
type Config struct {
	// Disks is the number of independent spindles (default 4).
	Disks int
	// Seek is the positioning cost for a random access (default 5ms).
	Seek time.Duration
	// SeqSeek is the positioning cost when the request is near-sequential
	// with the disk's previous request (default 800µs).
	SeqSeek time.Duration
	// BandwidthBps is the transfer rate in bytes/second (default 25 MB/s).
	BandwidthBps int64
	// SeqWindow is the maximum forward page-index distance (within one
	// dataset) still counted as near-sequential. Striping places consecutive
	// page indices on consecutive disks, so a scanning query advances a
	// given disk's position by Disks indices per page. Default 2*Disks.
	SeqWindow int
	// ThrashPerStream scales non-sequential positioning by
	// 1 + ThrashPerStream·(streams−1), where streams is the number of
	// distinct requesters among the disk's recent requests. It models seek
	// amplification when many concurrent query streams interleave on one
	// spindle (the head bounces between their regions), which is what makes
	// the I/O subsystem "unable to keep up" past the optimal thread count
	// in the paper's Figure 4. Default 0.18; set negative to disable.
	ThrashPerStream float64
	// Sched selects the per-spindle service discipline (default SchedFIFO,
	// the paper's behaviour).
	Sched Sched
	// MaxBatchPages caps the distinct pages merged into one elevator
	// transfer (default 16; values below 1 disable merging but keep the
	// reordering). Ignored under SchedFIFO.
	MaxBatchPages int
	// MaxDelay is the elevator's starvation bound: a pending request may be
	// bypassed by at most this many dispatches before the scheduler is
	// forced to serve the oldest waiter first. 0 means the default of 8;
	// negative disables the bound (pure SCAN). Ignored under SchedFIFO.
	MaxDelay int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Disks == 0 {
		c.Disks = 4
	}
	if c.Seek == 0 {
		c.Seek = 5 * time.Millisecond
	}
	if c.SeqSeek == 0 {
		c.SeqSeek = 800 * time.Microsecond
	}
	if c.BandwidthBps == 0 {
		c.BandwidthBps = 25 << 20
	}
	if c.SeqWindow == 0 {
		c.SeqWindow = 2 * c.Disks
	}
	if c.ThrashPerStream == 0 {
		c.ThrashPerStream = 0.18
	}
	if c.ThrashPerStream < 0 {
		c.ThrashPerStream = 0
	}
	if c.MaxBatchPages == 0 {
		c.MaxBatchPages = 16
	}
	if c.MaxBatchPages < 1 {
		c.MaxBatchPages = 1
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 8
	}
	return c
}

// Generator produces the payload of a page on the real runtime. On the
// synthetic runtime it is never called.
type Generator func(l *dataset.Layout, page int) []byte

// Stats are cumulative farm counters.
type Stats struct {
	Reads      int64 // distinct page transfers served
	SeqReads   int64 // reads that paid the sequential positioning cost or rode a batch
	BytesRead  int64
	ServiceSum time.Duration // total service time across all reads

	// Elevator counters (zero under SchedFIFO).
	MergedReads   int64 // requests that rode a batch behind its leader (positioning costs avoided)
	Batches       int64 // dispatches issued by the elevator
	BatchPagesSum int64 // distinct pages summed over batches (mean batch = BatchPagesSum/Batches)
	MaxReorder    int64 // largest |dispatch position − arrival position| observed
}

// Farm is a bank of disks.
type Farm struct {
	cfg      Config
	rtm      rt.Runtime
	stations []rt.Station
	gen      Generator
	mx       farmMetrics

	mu     sync.Mutex
	last   []map[string]int // per disk: dataset -> last dispatched page index
	recent [][]string       // per disk: ring of recent requester names
	rpos   []int

	queues []diskQueue // per-disk dispatch queues (SchedElevator only)
}

// farmMetrics are the farm's counters, each event counted here once: Stats
// reads them and UseMetrics names them on a registry. The per-disk slices
// are indexed by spindle.
type farmMetrics struct {
	// busyNanos is service time in integer nanoseconds, so Stats.ServiceSum
	// is exact; the registry derives seconds from it.
	busyNanos   []metrics.Counter
	queueLength []metrics.Gauge
	reads       []metrics.Counter
	seqReads    metrics.Counter
	readBytes   metrics.Counter
	mergedReads metrics.Counter
	batchPages  *metrics.Histogram
	// reorderDist is the last elevator batch's largest displacement (a
	// series); maxReorder is the running maximum behind Stats.MaxReorder (no
	// series). Both are written under Farm.mu.
	reorderDist, maxReorder metrics.Gauge
}

// UseMetrics publishes the farm's counters and gauges (mqsched_disk_*, the
// per-disk ones labelled disk="0".."N-1") on reg.
func (f *Farm) UseMetrics(reg *metrics.Registry) {
	for d := 0; d < f.cfg.Disks; d++ {
		label := metrics.L("disk", fmt.Sprint(d))
		busy := &f.mx.busyNanos[d]
		reg.CounterFunc("mqsched_disk_busy_seconds_total",
			"Accumulated service time per spindle (positioning plus transfer).",
			func() float64 { return time.Duration(busy.Value()).Seconds() }, label)
		reg.PublishGauge("mqsched_disk_queue_length",
			"Requests queued or in service per spindle.", &f.mx.queueLength[d], label)
		reg.PublishCounter("mqsched_disk_reads_total",
			"Page reads served per spindle.", &f.mx.reads[d], label)
	}
	reg.PublishCounter("mqsched_disk_seq_reads_total",
		"Reads that paid the near-sequential positioning cost (or rode an elevator batch).", &f.mx.seqReads)
	reg.PublishCounter("mqsched_disk_read_bytes_total",
		"Bytes transferred from the farm.", &f.mx.readBytes)
	reg.PublishCounter("mqsched_disk_merged_reads_total",
		"Requests merged into a multi-page elevator transfer behind its leader (positioning costs avoided).", &f.mx.mergedReads)
	reg.PublishHistogram("mqsched_disk_batch_pages",
		"Distinct pages per elevator dispatch.", f.mx.batchPages)
	reg.PublishGauge("mqsched_disk_reorder_distance",
		"Largest |dispatch position - arrival position| in the most recent elevator batch.", &f.mx.reorderDist)
}

// NewFarm builds a farm on the given runtime. gen may be nil on the
// synthetic runtime.
func NewFarm(r rt.Runtime, cfg Config, gen Generator) *Farm {
	cfg = cfg.withDefaults()
	f := &Farm{cfg: cfg, rtm: r, gen: gen}
	f.stations = make([]rt.Station, cfg.Disks)
	f.last = make([]map[string]int, cfg.Disks)
	f.recent = make([][]string, cfg.Disks)
	f.rpos = make([]int, cfg.Disks)
	f.queues = make([]diskQueue, cfg.Disks)
	f.mx.busyNanos = make([]metrics.Counter, cfg.Disks)
	f.mx.queueLength = make([]metrics.Gauge, cfg.Disks)
	f.mx.reads = make([]metrics.Counter, cfg.Disks)
	f.mx.batchPages = metrics.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64})
	for i := range f.stations {
		f.stations[i] = r.NewStation(fmt.Sprintf("disk%d", i), 1)
		f.last[i] = map[string]int{}
		f.recent[i] = make([]string, 0, thrashWindow)
	}
	return f
}

// Disks returns the number of spindles.
func (f *Farm) Disks() int { return f.cfg.Disks }

// Sched returns the configured service discipline.
func (f *Farm) Sched() Sched { return f.cfg.Sched }

// IOBatchPages returns the preferred number of pages per ReadPages call: the
// amount that fills every spindle's merge window in one submission. It is 0
// under SchedFIFO, where batched submission brings no benefit — callers use
// it to gate their batch fan-out.
func (f *Farm) IOBatchPages() int {
	if f.cfg.Sched != SchedElevator {
		return 0
	}
	return f.cfg.MaxBatchPages * f.cfg.Disks
}

// DiskFor returns the spindle holding page of ds: striping is round-robin
// by page index, with the dataset name hashed into the starting offset so
// different datasets are spread across spindles.
func (f *Farm) DiskFor(ds string, page int) int {
	h := fnv.New32a()
	h.Write([]byte(ds))
	return (int(h.Sum32()%uint32(f.cfg.Disks)) + page) % f.cfg.Disks
}

// ServiceTime returns the modelled service time of a transfer given its
// payload size, whether positioning is near-sequential, and the number of
// distinct query streams recently interleaved on the spindle.
func (f *Farm) ServiceTime(bytes int64, sequential bool, streams int) time.Duration {
	var pos time.Duration
	if sequential {
		pos = f.cfg.SeqSeek
	} else {
		pos = f.cfg.Seek
		if streams > 1 {
			pos = time.Duration(float64(pos) * (1 + f.cfg.ThrashPerStream*float64(streams-1)))
		}
	}
	transfer := time.Duration(float64(bytes) / float64(f.cfg.BandwidthBps) * float64(time.Second))
	return pos + transfer
}

// priceLocked decides positioning for a transfer leader at dispatch time and
// advances the spindle's head state: sequentiality against the last
// dispatched page of the same dataset, stream diversity from the requester
// ring. Callers hold f.mu.
func (f *Farm) priceLocked(d int, ds string, page int, requester string) (seq bool, streams int) {
	lastIdx, seen := f.last[d][ds]
	seq = seen && page > lastIdx && page-lastIdx <= f.cfg.SeqWindow
	f.last[d][ds] = page
	streams = f.noteRequesterLocked(d, requester)
	return seq, streams
}

// Read retrieves one page, blocking the calling process for queueing plus
// service time at the page's disk. On the real runtime it returns the page
// payload; on the synthetic runtime it returns nil. It is recorded as a span
// (subsystem "disk", op "read") under the span ctx carries, covering both
// queueing and service at the spindle, with the spindle index, bytes,
// positioning class, and interleaved stream count.
func (f *Farm) Read(ctx rt.Ctx, l *dataset.Layout, page int) []byte {
	f.checkPage(l, page)
	if f.cfg.Sched == SchedElevator {
		reqs := f.enqueue(ctx, l, []int{page})
		return f.await(ctx, reqs)[0]
	}
	return f.readFIFO(ctx, l, page)
}

// ReadPages retrieves a list of pages (in any order, possibly spanning
// several spindles and containing duplicates) and returns their payloads
// aligned with the input, each page's disk span recorded under the span ctx
// carries. Under SchedFIFO the pages are read one at a time in input order —
// the paper's blocking behaviour. Under SchedElevator all requests are
// submitted to their spindles' dispatch queues at once, so the elevator sees
// the whole batch and can reorder and merge it; the call blocks until every
// page is served.
func (f *Farm) ReadPages(ctx rt.Ctx, l *dataset.Layout, pages []int) [][]byte {
	if len(pages) == 0 {
		return nil
	}
	for _, p := range pages {
		f.checkPage(l, p)
	}
	if f.cfg.Sched == SchedElevator {
		reqs := f.enqueue(ctx, l, pages)
		return f.await(ctx, reqs)
	}
	out := make([][]byte, len(pages))
	for i, p := range pages {
		out[i] = f.readFIFO(ctx, l, p)
	}
	return out
}

// checkPage panics on an out-of-range page index.
func (f *Farm) checkPage(l *dataset.Layout, page int) {
	if page < 0 || page >= l.NumPages() {
		panic(fmt.Sprintf("disk: page %d out of range for %q (%d pages)", page, l.Name, l.NumPages()))
	}
}

// readFIFO is the one-page-per-request FCFS path. The positioning decision,
// head-state update, and requester-ring note happen inside the station's
// dispatch callback — when the request actually reaches the spindle — so the
// sequentiality and stream estimates reflect service order even when several
// processes race between enqueue and service on the real runtime.
func (f *Farm) readFIFO(ctx rt.Ctx, l *dataset.Layout, page int) []byte {
	d := f.DiskFor(l.Name, page)
	bytes := l.PageBytes(page)
	span := rt.SpanOf(ctx).Child(trace.SubDisk, trace.OpRead, trace.I64(trace.AttrSpindle, int64(d)))

	var seq bool
	var streams int
	f.mx.queueLength[d].Inc()
	f.stations[d].ServeWith(ctx, func() time.Duration {
		f.mu.Lock()
		seq, streams = f.priceLocked(d, l.Name, page, ctx.Name())
		service := f.ServiceTime(bytes, seq, streams)
		f.mu.Unlock()
		if seq {
			f.mx.seqReads.Inc()
		}
		f.mx.reads[d].Inc()
		f.mx.readBytes.Add(bytes)
		f.mx.busyNanos[d].Add(int64(service))
		return service
	})
	f.mx.queueLength[d].Dec()
	span.Finish(trace.I64(trace.AttrBytes, bytes), trace.Bool(trace.AttrSequential, seq),
		trace.I64(trace.AttrStreams, int64(streams)))

	if f.gen != nil && !ctx.Synthetic() {
		return f.gen(l, page)
	}
	return nil
}

// thrashWindow is the number of recent requests per disk over which distinct
// requesters are counted.
const thrashWindow = 16

// noteRequesterLocked records the requester in the disk's recent-request
// ring and returns the number of distinct requesters currently in it — the
// stream-diversity estimate used for seek thrash.
func (f *Farm) noteRequesterLocked(d int, name string) int {
	ring := f.recent[d]
	if len(ring) < thrashWindow {
		ring = append(ring, name)
		f.recent[d] = ring
	} else {
		ring[f.rpos[d]] = name
		f.rpos[d] = (f.rpos[d] + 1) % thrashWindow
	}
	distinct := 0
	for i, a := range ring {
		dup := false
		for _, b := range ring[:i] {
			if a == b {
				dup = true
				break
			}
		}
		if !dup {
			distinct++
		}
	}
	return distinct
}

// Stats reads the counters.
func (f *Farm) Stats() Stats {
	m := &f.mx
	st := Stats{
		SeqReads:      m.seqReads.Value(),
		BytesRead:     m.readBytes.Value(),
		MergedReads:   m.mergedReads.Value(),
		Batches:       m.batchPages.Count(),
		BatchPagesSum: int64(m.batchPages.Sum()),
		MaxReorder:    m.maxReorder.Value(),
	}
	for d := range m.reads {
		st.Reads += m.reads[d].Value()
		st.ServiceSum += time.Duration(m.busyNanos[d].Value())
	}
	return st
}

// Utilization returns the mean utilization across spindles (synthetic
// runtime only; 0 otherwise).
func (f *Farm) Utilization() float64 {
	var sum float64
	for _, s := range f.stations {
		sum += s.Utilization()
	}
	return sum / float64(len(f.stations))
}
