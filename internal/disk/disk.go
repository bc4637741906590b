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
//     request reaches the head of the disk queue, between Station.Seize and
//     Station.Finish — so the sequentiality and stream estimates always
//     reflect actual service order (under FIFO the two orders coincide on the
//     simulated runtime, keeping the paper's figures bit-identical).
//
//   - SchedElevator: requests enter a per-disk dispatch queue. A dispatcher
//     reorders pending requests in elevator/SCAN order by (dataset, page
//     index), merges adjacent and duplicate page requests into a single
//     multi-page transfer billed one positioning cost plus the combined
//     transfer time, and bounds reordering with a starvation deadline
//     (Farm.maxDelay dispatches) so no request is bypassed indefinitely.
//     This implements the Page Space Manager contract of paper §2 —
//     "requests for overlapping and neighboring pages are reordered, merged,
//     and duplicate requests are eliminated" — at the spindle, where the
//     seek savings are actually realized.
package disk

import (
	"fmt"
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
	switch s {
	case SchedFIFO:
		return "fifo"
	case SchedElevator:
		return "elevator"
	}
	return fmt.Sprintf("Sched(%d)", int(s))
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
	// Disks is the number of independent spindles (default DefaultDisks).
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
}

// DefaultDisks is the farm size when Config.Disks is zero.
const DefaultDisks = 4

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Disks == 0 {
		c.Disks = DefaultDisks
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

	// mu guards the spindles' head and requester state, the elevator's
	// queues and the farm's read counters (farmMetrics).
	mu     sync.Mutex
	heads  [][]head        // per disk: the last dispatched page of each dataset it served
	recent []requesterRing // per disk: the recent requesters

	queues []diskQueue // per-disk dispatch queues (SchedElevator only)

	// The elevator's tuning, set by NewFarm; package tests assign them
	// after it. Both are ignored under SchedFIFO.
	//
	// maxBatchPages caps the distinct pages merged into one transfer (16;
	// 1 disables merging but keeps the reordering).
	maxBatchPages int
	// maxDelay is the starvation bound: a pending request may be bypassed
	// by at most this many dispatches before the oldest waiter is served
	// first (8; negative disables the bound, pure SCAN).
	maxDelay int
}

// farmMetrics are the farm's counters, each event counted here once: Stats
// reads them and UseMetrics names them on a registry. The per-disk slices
// are indexed by spindle. The read counters are plain integers written
// under Farm.mu, which a read holds to price itself anyway; Stats and the
// registry read them under it too. The queue length changes outside that
// lock, so it stays a gauge.
type farmMetrics struct {
	// busyNanos is service time in integer nanoseconds, so Stats.ServiceSum
	// is exact; the registry derives seconds from it.
	busyNanos   []int64
	reads       []int64
	seqReads    int64
	readBytes   int64
	mergedReads int64
	queueLength []metrics.Gauge
	batchPages  *metrics.Histogram
	// reorderDist is the last elevator batch's largest displacement (a
	// series); maxReorder is the running maximum behind Stats.MaxReorder (no
	// series). Both are written under Farm.mu.
	reorderDist, maxReorder metrics.Gauge
}

// UseMetrics publishes the farm's counters and gauges (mqsched_disk_*, the
// per-disk ones labelled disk="0".."N-1") on reg.
func (f *Farm) UseMetrics(reg *metrics.Registry) {
	locked := func(v *int64) func() float64 {
		return func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(*v)
		}
	}
	for d := 0; d < f.cfg.Disks; d++ {
		label := metrics.L("disk", fmt.Sprint(d))
		busy := &f.mx.busyNanos[d]
		reg.CounterFunc("mqsched_disk_busy_seconds_total",
			"Accumulated service time per spindle (positioning plus transfer).",
			func() float64 {
				f.mu.Lock()
				defer f.mu.Unlock()
				return time.Duration(*busy).Seconds()
			}, label)
		reg.PublishGauge("mqsched_disk_queue_length",
			"Requests queued or in service per spindle.", &f.mx.queueLength[d], label)
		reg.CounterFunc("mqsched_disk_reads_total",
			"Page reads served per spindle.", locked(&f.mx.reads[d]), label)
	}
	reg.CounterFunc("mqsched_disk_seq_reads_total",
		"Reads that paid the near-sequential positioning cost (or rode an elevator batch).", locked(&f.mx.seqReads))
	reg.CounterFunc("mqsched_disk_read_bytes_total",
		"Bytes transferred from the farm.", locked(&f.mx.readBytes))
	reg.CounterFunc("mqsched_disk_merged_reads_total",
		"Requests merged into a multi-page elevator transfer behind its leader (positioning costs avoided).", locked(&f.mx.mergedReads))
	reg.PublishHistogram("mqsched_disk_batch_pages",
		"Distinct pages per elevator dispatch.", f.mx.batchPages)
	reg.PublishGauge("mqsched_disk_reorder_distance",
		"Largest |dispatch position - arrival position| in the most recent elevator batch.", &f.mx.reorderDist)
}

// NewFarm builds a farm on the given runtime. gen may be nil on the
// synthetic runtime.
func NewFarm(r rt.Runtime, cfg Config, gen Generator) *Farm {
	cfg = cfg.withDefaults()
	f := &Farm{cfg: cfg, rtm: r, gen: gen, maxBatchPages: 16, maxDelay: 8}
	f.stations = make([]rt.Station, cfg.Disks)
	f.heads = make([][]head, cfg.Disks)
	f.recent = make([]requesterRing, cfg.Disks)
	f.queues = make([]diskQueue, cfg.Disks)
	f.mx.busyNanos = make([]int64, cfg.Disks)
	f.mx.queueLength = make([]metrics.Gauge, cfg.Disks)
	f.mx.reads = make([]int64, cfg.Disks)
	f.mx.batchPages = metrics.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64})
	for i := range f.stations {
		f.stations[i] = r.NewStation(fmt.Sprintf("disk%d", i), 1)
		f.heads[i] = make([]head, 0, 4)
		f.recent[i] = newRequesterRing(thrashWindow)
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
	return f.maxBatchPages * f.cfg.Disks
}

// DiskFor returns the spindle holding page of ds: striping is round-robin
// by page index, with the dataset name's FNV-32a hash (dataset.HashName)
// choosing the starting offset so different datasets are spread across
// spindles.
func (f *Farm) DiskFor(ds string, page int) int {
	return f.stripe(dataset.HashName(ds), page)
}

// spindle is DiskFor for a layout, from the hash dataset.New computed.
func (f *Farm) spindle(l *dataset.Layout, page int) int {
	return f.stripe(l.NameHash(), page)
}

// stripe places page of the dataset whose name hashes to h.
func (f *Farm) stripe(h uint32, page int) int {
	return (int(h%uint32(f.cfg.Disks)) + page) % f.cfg.Disks
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

// head is a spindle's last dispatched page of one dataset.
type head struct {
	l    *dataset.Layout
	page int
}

// priceLocked decides positioning for a transfer that starts at page lead
// and ends at page tail of l, at dispatch time, and advances the spindle's
// head state: sequentiality of lead against the last dispatched page of the
// same dataset, stream diversity from the requester ring. A spindle serves
// few datasets, so its heads are a slice scanned by layout. Callers hold
// f.mu.
func (f *Farm) priceLocked(d int, l *dataset.Layout, lead, tail int, req requester) (seq bool, streams int) {
	hs := f.heads[d]
	i := 0
	for i < len(hs) && hs[i].l != l {
		i++
	}
	if i == len(hs) {
		f.heads[d] = append(hs, head{l: l, page: tail})
	} else {
		last := hs[i].page
		seq = lead > last && lead-last <= f.cfg.SeqWindow
		hs[i].page = tail
	}
	streams = f.recent[d].note(req)
	return seq, streams
}

// Read retrieves one page, blocking the calling process for queueing plus
// service time at the page's disk. It returns the page payload on the real
// runtime (nil on the synthetic one) and the page's size in bytes, which a
// caller that keeps the page need not compute again. It is recorded as a
// span (subsystem "disk", op "read") under the span ctx carries, covering
// both queueing and service at the spindle, with the spindle index, bytes,
// positioning class, and interleaved stream count.
func (f *Farm) Read(ctx rt.Ctx, l *dataset.Layout, page int) ([]byte, int64) {
	f.checkPage(l, page)
	if f.cfg.Sched == SchedElevator {
		reqs := f.enqueue(ctx, l, []int{page})
		return f.await(ctx, reqs)[0], l.PageBytes(page)
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
		out[i], _ = f.readFIFO(ctx, l, p)
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
// head-state update, and requester-ring note happen between Seize and
// Finish — when the request actually reaches the spindle — so the
// sequentiality and stream estimates reflect service order even when several
// processes race between enqueue and service on the real runtime.
func (f *Farm) readFIFO(ctx rt.Ctx, l *dataset.Layout, page int) ([]byte, int64) {
	d := f.spindle(l, page)
	bytes := l.PageBytes(page)
	var span trace.SpanContext
	if parent := rt.SpanOf(ctx); parent.Active() {
		span = parent.Child(trace.SubDisk, trace.OpRead, trace.I64(trace.AttrSpindle, int64(d)))
	}

	st := f.stations[d]
	f.mx.queueLength[d].Inc()
	st.Seize(ctx)
	f.mu.Lock()
	seq, streams := f.priceLocked(d, l, page, page, requester{ctx.Name(), rt.NameHash(ctx)})
	service := f.ServiceTime(bytes, seq, streams)
	if seq {
		f.mx.seqReads++
	}
	f.mx.reads[d]++
	f.mx.readBytes += bytes
	f.mx.busyNanos[d] += int64(service)
	f.mu.Unlock()
	st.Finish(ctx, service)
	f.mx.queueLength[d].Dec()
	if span.Active() {
		span.Finish(trace.I64(trace.AttrBytes, bytes), trace.Bool(trace.AttrSequential, seq),
			trace.I64(trace.AttrStreams, int64(streams)))
	}

	if f.gen != nil && !ctx.Synthetic() {
		return f.gen(l, page), bytes
	}
	return nil, bytes
}

// thrashWindow is the number of recent requests per disk over which distinct
// requesters are counted.
const thrashWindow = 16

// requesterRing is one disk's most recent requesters, as many as its
// capacity, and the number of distinct names among them: two processes of
// one name are one stream. The ring is small (thrashWindow), so note finds
// a name by scanning it. The names' hashes (rt.NameHash, computed when the
// process was spawned) sit in a slice of their own beside the names, so the
// scan reads one packed array and compares a name only where its hash
// agrees. It keeps no state beyond its slots, so a long-lived farm that sees
// a fresh name per prefetch stays bounded. Callers hold Farm.mu.
type requesterRing struct {
	hashes   []uint32 // hashes[i] is the hash of names[i]
	names    []string
	pos      int // next slot to overwrite once the ring is full
	distinct int
}

// requester is a requester name and its hash (rt.NameHash).
type requester struct {
	name string
	hash uint32
}

func (a requester) is(b requester) bool { return a.hash == b.hash && a.name == b.name }

func newRequesterRing(size int) requesterRing {
	return requesterRing{hashes: make([]uint32, 0, size), names: make([]string, 0, size)}
}

// note records the requester and returns the number of distinct requesters
// now in the ring — the stream-diversity estimate used for seek thrash.
func (r *requesterRing) note(q requester) int {
	if len(r.names) < cap(r.names) {
		if !r.holds(q, -1) {
			r.distinct++
		}
		r.hashes = append(r.hashes, q.hash)
		r.names = append(r.names, q.name)
		return r.distinct
	}
	if old := (requester{r.names[r.pos], r.hashes[r.pos]}); !old.is(q) {
		if !r.holds(old, r.pos) {
			r.distinct--
		}
		if !r.holds(q, r.pos) {
			r.distinct++
		}
		r.hashes[r.pos], r.names[r.pos] = q.hash, q.name
	}
	if r.pos++; r.pos == len(r.names) {
		r.pos = 0
	}
	return r.distinct
}

// holds reports whether q is in the ring at a slot other than skip.
func (r *requesterRing) holds(q requester, skip int) bool {
	for i, h := range r.hashes {
		if h == q.hash && i != skip && r.names[i] == q.name {
			return true
		}
	}
	return false
}

// Stats reads the counters.
func (f *Farm) Stats() Stats {
	m := &f.mx
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		SeqReads:      m.seqReads,
		BytesRead:     m.readBytes,
		MergedReads:   m.mergedReads,
		Batches:       m.batchPages.Count(),
		BatchPagesSum: int64(m.batchPages.Sum()),
		MaxReorder:    m.maxReorder.Value(),
	}
	for d := range m.reads {
		st.Reads += m.reads[d]
		st.ServiceSum += time.Duration(m.busyNanos[d])
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
