// Package query defines the application-facing operator model of the
// middleware: the query predicate meta-data (M_i in the paper) and the
// user-defined functions of Equations (1)-(3) — cmp, overlap, project — plus
// qoutsize and qinputsize. An application (such as the Virtual Microscope in
// internal/vm) implements App by sub-classing, exactly as the paper's C++
// framework does through virtual methods.
package query

import (
	"runtime"
	"time"

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
}

// PageReader is the query-side view of the page space manager: it retrieves
// one data chunk, blocking the calling process for the modelled (or real)
// I/O time. The returned slice is nil on the synthetic runtime and must be
// treated as read-only otherwise. Applications do not call it themselves:
// they hand the reader ComputeRaw was given to ForEachPage.
type PageReader interface {
	ReadPage(ctx rt.Ctx, dataset string, page int) []byte
}

// Prefetcher is optionally implemented by a PageReader that can start
// fetching a page in the background ("data prefetching", one of the
// optimizations the paper's introduction lists alongside caching). A later
// ReadPage of the same page coalesces onto the in-flight fetch.
type Prefetcher interface {
	StartFetch(dataset string, page int)
}

// BatchReader is optionally implemented by a PageReader that accepts whole
// page lists in one call, letting an elevator-scheduled disk farm reorder
// and merge the requests into multi-page transfers. IOBatchPages reports the
// preferred pages per ReadPages call; 0 means batched submission brings no
// benefit (a FIFO farm) and ForEachPage keeps the paper's one-page-at-a-time
// loop.
type BatchReader interface {
	PageReader
	ReadPages(ctx rt.Ctx, dataset string, pages []int) [][]byte
	IOBatchPages() int
}

// BatchPrefetcher is optionally implemented by a Prefetcher that accepts a
// whole run of prefetch hints at once; the run is fetched as one batched
// background read and consumes a single prefetch slot.
type BatchPrefetcher interface {
	StartFetchBatch(dataset string, pages []int)
}

// Aggregator is optionally implemented by an App that can name a coarser
// "parent" predicate covering a hot region, such that the sampled queries
// (and future ones like them) could be answered by projecting from the
// parent's result. The data store's cost policy uses it for proactive
// materialization: when a region keeps attracting lookups the cache cannot
// fully answer, it asks for the parent predicate and hints the server to
// compute it ahead of demand.
type Aggregator interface {
	// ParentMeta derives a parent predicate from recent probe predicates
	// sampled in the hot region and the union of their regions. ok is false
	// when no useful parent exists (e.g. the samples are incompatible).
	ParentMeta(samples []Meta, hot geom.Rect) (parent Meta, ok bool)
}

// ParallelComputer is optionally implemented by an App whose ComputeRaw can
// fan one query's chunk list across a bounded worker group on the real
// runtime (intra-query parallelism). n bounds the workers per ComputeRaw
// call: 1 keeps the serial per-query loop, 0 selects a GOMAXPROCS-derived
// default (see ResolveParallelism). The setting must only be changed before
// the server starts executing queries.
type ParallelComputer interface {
	SetComputeParallelism(n int)
}

// ResolveParallelism maps a ComputeParallelism knob value to a concrete
// worker bound: values > 0 pass through, anything else selects GOMAXPROCS.
func ResolveParallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
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
	// for dst computable from a result for src via Project. A zero return
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
	// real runtime).
	NewBlob(ctx rt.Ctx, m Meta) *Blob

	// Coverable returns the region of dst's output grid that Project(src,
	// dst) would cover, without performing the transformation. The server
	// uses it to skip projections that add nothing to the uncovered
	// remainder of a query, and — because a non-empty Project covers
	// exactly this rect — to decide which candidate projections write
	// disjoint output and may therefore run concurrently.
	Coverable(src, dst Meta) geom.Rect

	// Project implements Equation (3): it transforms the part of src's data
	// that is reusable for dst's predicate into out (the output blob for
	// dst), charging the projection cost to ctx. It returns the region of
	// dst's *output grid* that is now covered (empty if nothing could be
	// projected).
	Project(ctx rt.Ctx, src *Blob, dst Meta, out *Blob) geom.Rect

	// OutputGrid returns the full output grid of m in output coordinates;
	// coverage bookkeeping and sub-query decomposition happen on this grid.
	OutputGrid(m Meta) geom.Rect

	// ComputeRaw computes the portion outSub (in output-grid coordinates) of
	// m's result from raw input data, reading chunks through pr and writing
	// into out. It charges I/O to pr and computation to ctx, and returns
	// the number of input bytes read.
	ComputeRaw(ctx rt.Ctx, m Meta, outSub geom.Rect, out *Blob, pr PageReader) int64
}

// Result is what the server hands back for a completed query.
type Result struct {
	Meta Meta
	Blob *Blob // may alias a cached blob; read-only

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
