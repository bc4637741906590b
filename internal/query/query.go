// Package query defines the application-facing operator model of the
// middleware: the query predicate meta-data (M_i in the paper) and the
// user-defined functions of Equations (1)-(3) — cmp, overlap, project — plus
// qoutsize and qinputsize. An application (such as the Virtual Microscope in
// internal/vm) implements App by sub-classing, exactly as the paper's C++
// framework does through virtual methods.
package query

import (
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/rt"
)

// Meta is the predicate meta-information describing a query: which dataset
// it touches, the spatial region of interest at base resolution, and any
// application-specific parameters (magnification, processing function, ...)
// carried by the concrete type. The middleware treats Meta values as opaque
// except for the dataset name and region, which drive indexing.
type Meta interface {
	// Dataset names the input dataset.
	Dataset() string
	// Region is the query region at the dataset's base resolution.
	Region() geom.Rect
	// String renders the predicate for logs.
	String() string
}

// Blob holds an intermediate or final query result: the answer "blob" of the
// paper's data transformation model. On the synthetic (simulated) runtime
// Data is nil and only Size is meaningful; on the real runtime Data holds
// the actual bytes.
type Blob struct {
	Meta Meta
	Size int64  // bytes (qoutsize of Meta)
	Data []byte // nil on the synthetic runtime
	// Buf counts the holders of Data; every Blob sharing those bytes points
	// to the same Buf. Nil when nothing recycles the bytes (the simulated
	// runtime, a server without a data store).
	Buf *Buf
}

// Buf is the holder count of one output buffer. The data store that
// recycles the bytes guards it with its lock: once nothing holds them, the
// bytes go on its free list for the next output of the same size.
type Buf struct {
	// Entries counts the data store entries holding the bytes.
	Entries int
	// Owners counts the other holders: the Result the bytes were made or
	// shared for, until it is released, and a batch seed until its group
	// has run.
	Owners int
}

// PageReader is the query-side view of the page space manager: it retrieves
// one data chunk, blocking the calling process for the modelled (or real)
// I/O time. The returned slice is nil on the synthetic runtime and must be
// treated as read-only otherwise. Applications do not call it themselves:
// they hand the reader ComputeRaw was given to ForEachPage.
type PageReader interface {
	ReadPage(ctx rt.Ctx, dataset string, page int) []byte
}

// LayoutReader is optionally implemented by a PageReader that reads a page
// of the layout the caller already holds, so no dataset name is resolved per
// page; ForEachPage reads such a reader through Read. The page space manager
// is one.
type LayoutReader interface {
	Read(ctx rt.Ctx, l *dataset.Layout, page int) []byte
}

// Prefetcher is optionally implemented by a PageReader that can start
// fetching a page in the background ("data prefetching", one of the
// optimizations the paper's introduction lists alongside caching). A later
// read of the same page coalesces onto the in-flight fetch.
type Prefetcher interface {
	StartFetch(l *dataset.Layout, page int)
}

// BatchReader is optionally implemented by a PageReader that accepts whole
// page lists in one call, letting an elevator-scheduled disk farm reorder
// and merge the requests into multi-page transfers. IOBatchPages reports the
// preferred pages per ReadPages call; 0 means batched submission brings no
// benefit (a FIFO farm) and ForEachPage keeps the paper's one-page-at-a-time
// loop.
type BatchReader interface {
	PageReader
	ReadPages(ctx rt.Ctx, l *dataset.Layout, pages []int) [][]byte
	IOBatchPages() int
}

// BatchPrefetcher is optionally implemented by a Prefetcher that accepts a
// whole run of prefetch hints at once; the run is fetched as one batched
// background read and consumes a single prefetch slot.
type BatchPrefetcher interface {
	StartFetchBatch(l *dataset.Layout, pages []int)
}

// Aggregator is optionally implemented by an App that can name a coarser
// "parent" predicate covering a region, such that the sampled queries
// could be answered by projecting from the parent's result. The batch
// executor uses it for a claimed group: it computes the group's parent once
// and fans it out to every member.
type Aggregator interface {
	// ParentMeta derives a parent predicate from sampled predicates in the
	// hot region and the union of their regions. ok is false when no useful
	// parent exists (e.g. the samples are incompatible).
	ParentMeta(samples []Meta, hot geom.Rect) (parent Meta, ok bool)
}

// App is the set of user-defined operations an application registers with
// the runtime system. The type parameter-free design mirrors the paper: a
// C++ class with virtual methods cmp, overlap, project plus size estimators.
type App interface {
	// Name identifies the application (e.g. "vm-subsample").
	Name() string

	// Cmp implements Equation (1): it reports whether a result computed for
	// predicate a is exactly the result for predicate b (common
	// subexpression elimination).
	Cmp(a, b Meta) bool

	// Overlap implements Equation (2): the fraction in [0, 1] of the result
	// for dst computable from a result for src via ProjectInto. A zero return
	// means no edge between the two queries in the scheduling graph. The
	// function may be asymmetric (the data transformation need not be
	// invertible; §4).
	Overlap(src, dst Meta) float64

	// QOutSize returns the size in bytes of the result for m (used for edge
	// weights and data store accounting).
	QOutSize(m Meta) int64

	// QInSize returns the input size in bytes for m — the total size of the
	// data chunks that intersect the query window, computed in the index
	// lookup step. It is the execution-time estimate used by SJF.
	QInSize(m Meta) int64

	// NewBlob allocates the output blob for m (Data populated only on the
	// real runtime). The server calls it only for an output that needs bytes
	// of its own, just before the first write into them, and only when the
	// data store's free list has no buffer of exactly that size: an exact
	// repeat of a cached result takes that result's bytes instead.
	NewBlob(ctx rt.Ctx, m Meta) *Blob

	// Coverable returns the region of dst's output grid that ProjectInto(src,
	// dst) would cover, without performing the transformation. The server
	// uses it to skip projections that add nothing to the uncovered
	// remainder of a query and, because a non-empty ProjectInto covers
	// exactly this rect, to update that remainder without touching pixels.
	Coverable(src, dst Meta) geom.Rect

	// ProjectInto implements Equation (3): it transforms the part of src's
	// data that is reusable for dst's predicate into out (the output blob
	// for dst), charging ctx the cost of projecting the whole covered
	// region. It returns the region of dst's *output grid* that src covers
	// (empty if nothing could be projected), but writes pixels only inside
	// r ∩ covered for each r in into: the server passes the still-uncovered
	// remainder, so every output pixel is written once, and a pixel two
	// cached results could both supply comes from the first one projected.
	// out's bytes arrive unzeroed (a recycled buffer holds an earlier
	// output's pixels), so every byte of covered ∩ into must be written.
	// The rects of into are disjoint; the caller reuses the slice after the
	// call returns, so it must not be kept.
	ProjectInto(ctx rt.Ctx, src *Blob, dst Meta, out *Blob, into []geom.Rect) geom.Rect

	// OutputGrid returns the full output grid of m in output coordinates;
	// coverage bookkeeping and sub-query decomposition happen on this grid.
	OutputGrid(m Meta) geom.Rect

	// ComputeRaw computes the portion outSub (in output-grid coordinates) of
	// m's result from raw input data, reading chunks through pr and writing
	// into out. It charges I/O to pr and computation to ctx, and returns
	// the number of input bytes read. out's bytes arrive unzeroed, as for
	// ProjectInto: every byte of outSub must be written.
	ComputeRaw(ctx rt.Ctx, m Meta, outSub geom.Rect, out *Blob, pr PageReader) int64
}

// Result is what the server hands back for a completed query.
type Result struct {
	Meta Meta
	// Blob is the output, which the server also stores as a data store
	// entry; read-only. When a cached result cmp-equal to Meta covered the
	// whole output (an exact repeat), Blob.Data is that result's bytes,
	// shared with it and with every other repeat of it. The bytes are the
	// caller's until it releases the Result (Server.Release), which sets
	// Blob to nil and may hand the bytes to a later query; a Result never
	// released keeps them, and the garbage collector takes them as usual.
	Blob *Blob

	// Timing, on the runtime's clock.
	Arrival   time.Duration
	ExecStart time.Duration
	Completed time.Duration

	// ReusedFrac is the fraction of the output grid produced by projecting
	// cached or just-finished results rather than raw computation — the
	// per-query "overlap" averaged in Figure 5.
	ReusedFrac float64
	// InputBytesRead counts raw bytes actually requested from the page
	// space manager.
	InputBytesRead int64
	// WaitedOnExecuting counts producers whose completion this query blocked
	// on.
	WaitedOnExecuting int
	// Canceled reports that the client abandoned the query while it was
	// still waiting; no result was computed (Blob is nil).
	Canceled bool
}

// WaitTime is the time spent queued before execution began.
func (r *Result) WaitTime() time.Duration { return r.ExecStart - r.Arrival }

// ExecTime is the time spent executing.
func (r *Result) ExecTime() time.Duration { return r.Completed - r.ExecStart }

// ResponseTime is waiting plus execution — the quantity reported in
// Figures 4 and 6.
func (r *Result) ResponseTime() time.Duration { return r.Completed - r.Arrival }
