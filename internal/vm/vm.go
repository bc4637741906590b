// Package vm implements the Virtual Microscope application (paper §3) on the
// multi-query runtime system: "a realistic digital emulation of a high power
// light microscope". Raw input data are 2-D digitized slides stored at the
// highest magnification, partitioned into ~64 KB rectangular chunks. A query
// names a rectangular window, a magnification level N, and one of two
// processing functions:
//
//   - Subsample: return every N-th pixel of the window in both dimensions —
//     cheap per output pixel, so the implementation is I/O-intensive.
//   - Average: each output pixel is the mean of N×N input pixels — it
//     touches every input pixel, so CPU and I/O are roughly balanced.
//
// The output image at magnification N is itself stored in the data store as
// an intermediate result. The overlap operator is Equation (4):
//
//	overlap index = (I_A / O_A) · (I_S / O_S)
//
// where I_A is the intersection area between the cached result and the query
// region, O_A the query region's area, I_S the zoom of the cached result and
// O_S the query's zoom; O_S must be a multiple of I_S (and the processing
// function must match), otherwise the overlap is 0.
//
// The pixel kernels (subsample, block average, projection) are
// row-vectorized: offsets advance by fixed strides along each row instead of
// being recomputed per pixel, and zoom-1 rows degenerate to single memmoves.
// Averaging writes every output cell that lies inside one page straight into
// the output through the block-average row kernel Project shares; only the
// cells a page edge cuts are accumulated across pages.
// The scalar originals are retained in ref.go as the correctness oracle. On
// the real runtime ComputeRaw additionally parallelizes each query across a
// bounded worker group (App.Parallelism): subsampling fans the page list
// (pages write disjoint output regions), averaging splits the output into one
// row band per worker, each resolved independently into its slice of the
// blob. Integer sums commute, so results are byte-identical to the serial
// loop.
package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
)

// Op selects the processing function of a query object.
type Op uint8

const (
	// Subsample returns every N-th pixel (the I/O-intensive implementation).
	Subsample Op = iota
	// Average computes each output pixel as the mean of N×N input pixels
	// (the balanced implementation).
	Average
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Subsample:
		return "subsample"
	case Average:
		return "average"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// ParseOp converts a name to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "subsample", "sub":
		return Subsample, nil
	case "average", "avg":
		return Average, nil
	}
	return 0, fmt.Errorf("vm: unknown op %q", s)
}

// BytesPerPixel is the RGB pixel size of VM slides.
const BytesPerPixel = 3

// Meta is a VM query predicate: "the magnification level, the processing
// function, and the bounding box of the output image in the entire dataset
// are stored as meta-data" (§3).
type Meta struct {
	DS   string
	Rect geom.Rect // window at base resolution; aligned to Zoom
	Zoom int64     // magnification reduction factor N ≥ 1
	Op   Op
}

// NewMeta validates and builds a predicate. The window must be non-empty and
// aligned to the zoom factor (use AlignRect) so that the output grid is
// exact; NewMeta panics where Validate reports an error.
func NewMeta(ds string, r geom.Rect, zoom int64, op Op) Meta {
	m := Meta{DS: ds, Rect: r, Zoom: zoom, Op: op}
	if err := m.Validate(); err != nil {
		panic(err.Error())
	}
	return m
}

// Validate reports why m is not a well-formed predicate: a zoom below 1, an
// empty window, or a window that is not aligned to the zoom. Code that takes
// predicates from outside the program checks here instead of panicking.
func (m Meta) Validate() error {
	switch r, zoom := m.Rect, m.Zoom; {
	case zoom < 1:
		return fmt.Errorf("vm: zoom %d < 1", zoom)
	case r.Empty():
		return fmt.Errorf("vm: empty query window")
	case r.X0%zoom != 0 || r.Y0%zoom != 0 || r.X1%zoom != 0 || r.Y1%zoom != 0:
		return fmt.Errorf("vm: window %v not aligned to zoom %d", r, zoom)
	}
	return nil
}

// WindowAt builds the predicate of a square view of slide l: side base pixels
// (at most the slide's smaller edge) centred near (cx, cy), moved inside the
// slide and floor-aligned to the zoom. The workload generators place their
// windows with it.
func WindowAt(l *dataset.Layout, cx, cy, side, zoom int64, op Op) Meta {
	side = min(side, l.Width, l.Height)
	x0 := geom.FloorDiv(geom.Clamp(cx-side/2, 0, l.Width-side), zoom) * zoom
	y0 := geom.FloorDiv(geom.Clamp(cy-side/2, 0, l.Height-side), zoom) * zoom
	side = geom.FloorDiv(side, zoom) * zoom
	return NewMeta(l.Name, geom.R(x0, y0, x0+side, y0+side), zoom, op)
}

// AlignRect expands r outward to zoom-aligned coordinates, clipped to the
// largest zoom-aligned rectangle inside bounds: a slide's sides need not be
// multiples of the zoom, and the partial cells along its edge have no exact
// output pixel. The result is empty or valid for NewMeta.
func AlignRect(r geom.Rect, zoom int64, bounds geom.Rect) geom.Rect {
	a := geom.Rect{
		X0: geom.FloorDiv(r.X0, zoom) * zoom,
		Y0: geom.FloorDiv(r.Y0, zoom) * zoom,
		X1: geom.CeilDiv(r.X1, zoom) * zoom,
		Y1: geom.CeilDiv(r.Y1, zoom) * zoom,
	}
	return a.Intersect(bounds.ScaleInner(zoom).Mul(zoom))
}

// Dataset implements query.Meta.
func (m Meta) Dataset() string { return m.DS }

// Region implements query.Meta.
func (m Meta) Region() geom.Rect { return m.Rect }

// String implements query.Meta.
func (m Meta) String() string {
	return fmt.Sprintf("vm(%s, %v, zoom=%d, %v)", m.DS, m.Rect, m.Zoom, m.Op)
}

// OutRect is the output image grid in absolute output coordinates: output
// pixel (X, Y) covers base pixels [X·Zoom, (X+1)·Zoom) × [Y·Zoom, (Y+1)·Zoom).
func (m Meta) OutRect() geom.Rect { return m.Rect.Scale(m.Zoom) }

// CostModel holds the modelled per-operation CPU costs used on the
// synthetic runtime. Defaults approximate the paper's 2002-era SMP (virtual
// method dispatch per pixel): they yield CPU:I/O between 0.04 and 0.06 for
// the subsampling version and near 1:1 for the averaging version under the
// paper's workload (§5).
type CostModel struct {
	// SubsamplePerOutPixel is charged per output pixel produced by the
	// subsampling function.
	SubsamplePerOutPixel time.Duration
	// AveragePerInPixel is charged per input pixel aggregated by the
	// averaging function.
	AveragePerInPixel time.Duration
	// ProjectPerSrcPixel is charged per source pixel touched while
	// projecting a cached result onto a new query.
	ProjectPerSrcPixel time.Duration
	// PerPageOverhead is charged per chunk for clipping and bookkeeping.
	PerPageOverhead time.Duration
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		SubsamplePerOutPixel: 280 * time.Nanosecond,
		AveragePerInPixel:    390 * time.Nanosecond,
		ProjectPerSrcPixel:   12 * time.Nanosecond,
		PerPageOverhead:      30 * time.Microsecond,
	}
}

// App is the Virtual Microscope application object registered with the
// runtime system.
type App struct {
	Table *dataset.Table
	Costs CostModel
	// PrefetchDepth, when positive, starts background fetches for the next
	// PrefetchDepth chunks while processing the current one (requires a
	// PageReader implementing query.Prefetcher). 0 — the paper's behaviour —
	// reads chunks strictly synchronously. Each chunk is hinted at most once
	// per query (a high-water mark, not a re-sliding window).
	PrefetchDepth int
	// Parallelism bounds the worker goroutines one ComputeRaw call may fan
	// its page list across on the real runtime (intra-query parallelism).
	// 0 selects GOMAXPROCS; 1 reproduces the paper's single-threaded query
	// loop. The simulated runtime always runs the serial loop: virtual-time
	// processes cannot be shared across host goroutines, and modelled
	// compute is charged to the virtual clock either way.
	Parallelism int
}

// New returns the VM app over the given slides with default costs.
func New(table *dataset.Table) *App {
	return &App{Table: table, Costs: DefaultCosts()}
}

var _ query.App = (*App)(nil)
var _ query.ParallelComputer = (*App)(nil)
var _ query.Aggregator = (*App)(nil)

// Name implements query.App.
func (a *App) Name() string { return "virtual-microscope" }

// SetComputeParallelism implements query.ParallelComputer.
func (a *App) SetComputeParallelism(n int) { a.Parallelism = n }

// Cmp implements Equation (1): exact predicate equality means the cached
// blob is the full answer.
func (a *App) Cmp(x, y query.Meta) bool {
	mx, okx := x.(Meta)
	my, oky := y.(Meta)
	return okx && oky && mx == my
}

// Overlap implements Equation (2) via the VM overlap index of Equation (4).
func (a *App) Overlap(src, dst query.Meta) float64 {
	s, oks := src.(Meta)
	d, okd := dst.(Meta)
	if !oks || !okd || s.DS != d.DS || s.Op != d.Op {
		return 0
	}
	// O_S must be a multiple of I_S so the intermediate result can be
	// transformed to the query's magnification.
	if d.Zoom%s.Zoom != 0 {
		return 0
	}
	ia := s.Rect.Intersect(d.Rect).Area()
	if ia == 0 {
		return 0
	}
	oa := d.Rect.Area()
	return (float64(ia) / float64(oa)) * (float64(s.Zoom) / float64(d.Zoom))
}

// QOutSize implements query.App: the RGB output image size.
func (a *App) QOutSize(m query.Meta) int64 {
	return m.(Meta).OutRect().Area() * BytesPerPixel
}

// QInSize implements query.App: total bytes of the chunks intersecting the
// query window, "calculated in the index lookup step" (§4, SJF).
func (a *App) QInSize(m query.Meta) int64 {
	mm := m.(Meta)
	return a.Table.Get(mm.DS).InputBytes(mm.Rect)
}

// OutputGrid implements query.App.
func (a *App) OutputGrid(m query.Meta) geom.Rect { return m.(Meta).OutRect() }

// ParentMeta implements query.Aggregator for proactive materialization: the
// parent of a hot region is the zoom-aligned interior of the region at the
// gcd of the sampled zoom factors — the finest magnification every sampled
// query's zoom is a multiple of, so Equation (4) lets each of them (and
// future queries on the same ladder) project from the parent's result. The
// processing function is the most frequent among the samples (Equation 4
// requires an exact op match).
func (a *App) ParentMeta(samples []query.Meta, hot geom.Rect) (query.Meta, bool) {
	var ds string
	var zoom int64
	opCount := map[Op]int{}
	for _, s := range samples {
		m, ok := s.(Meta)
		if !ok {
			continue
		}
		if ds == "" {
			ds = m.DS
		} else if m.DS != ds {
			continue
		}
		zoom = gcd64(zoom, m.Zoom)
		opCount[m.Op]++
	}
	if ds == "" || zoom < 1 {
		return nil, false
	}
	op, best := Subsample, 0
	for o, n := range opCount {
		if n > best || (n == best && o < op) {
			op, best = o, n
		}
	}
	bounds := a.Table.Get(ds).Bounds()
	r := hot.Intersect(bounds)
	// Inner alignment: shrink to zoom-aligned coordinates so the parent is
	// valid even when the slide edge itself is not aligned.
	r = geom.Rect{
		X0: geom.CeilDiv(r.X0, zoom) * zoom,
		Y0: geom.CeilDiv(r.Y0, zoom) * zoom,
		X1: geom.FloorDiv(r.X1, zoom) * zoom,
		Y1: geom.FloorDiv(r.Y1, zoom) * zoom,
	}
	if r.Empty() {
		return nil, false
	}
	return NewMeta(ds, r, zoom, op), true
}

// gcd64 returns the greatest common divisor, treating 0 as the identity.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// QCPUCost estimates the computational demand of a query from the cost
// model, for resource-aware scheduling (sched.CPUCostEstimator).
func (a *App) QCPUCost(m query.Meta) time.Duration {
	mm := m.(Meta)
	pages := int64(len(a.Table.Get(mm.DS).PagesInRect(mm.Rect)))
	cost := time.Duration(pages) * a.Costs.PerPageOverhead
	switch mm.Op {
	case Subsample:
		cost += time.Duration(mm.OutRect().Area()) * a.Costs.SubsamplePerOutPixel
	case Average:
		cost += time.Duration(mm.Rect.Area()) * a.Costs.AveragePerInPixel
	}
	return cost
}

// NewBlob implements query.App.
func (a *App) NewBlob(ctx rt.Ctx, m query.Meta) *query.Blob {
	b := &query.Blob{Meta: m, Size: a.QOutSize(m)}
	if !ctx.Synthetic() {
		b.Data = make([]byte, b.Size)
	}
	return b
}

// Coverable implements query.App: the dst output pixels fully derivable
// from a result for src.
func (a *App) Coverable(src, dst query.Meta) geom.Rect {
	s, oks := src.(Meta)
	d, okd := dst.(Meta)
	if !oks || !okd || a.Overlap(s, d) == 0 {
		return geom.Rect{}
	}
	return s.Rect.Intersect(d.Rect).ScaleInner(d.Zoom)
}

// Project implements Equation (3): transform the cached image src (at zoom
// I_S) into the portion of dst's output (at zoom O_S = k·I_S) that it
// covers. For the subsampling function this picks every k-th source pixel;
// for the averaging function it averages k×k source pixels (averages of
// equal-sized averages equal the average of the underlying base pixels, so
// the transformation is exact).
func (a *App) Project(ctx rt.Ctx, src *query.Blob, dst query.Meta, out *query.Blob) geom.Rect {
	s, ok := src.Meta.(Meta)
	if !ok {
		return geom.Rect{}
	}
	d := dst.(Meta)
	if a.Overlap(s, d) == 0 {
		return geom.Rect{}
	}
	baseIn := s.Rect.Intersect(d.Rect)
	covered := baseIn.ScaleInner(d.Zoom) // dst output pixels fully derivable
	if covered.Empty() {
		return geom.Rect{}
	}
	k := d.Zoom / s.Zoom
	srcTouched := covered.Area() * k * k
	ctx.Compute(time.Duration(srcTouched) * a.Costs.ProjectPerSrcPixel)

	if out.Data != nil && src.Data != nil {
		a.projectPixels(src.Data, s, out.Data, d, covered, k)
	}
	return covered
}

// projectPixels performs the real-data transformation for Project, one
// output row at a time. The op switch and grid geometry are hoisted out of
// the loops; source and destination offsets advance by fixed strides.
func (a *App) projectPixels(srcData []byte, s Meta, dstData []byte, d Meta, covered geom.Rect, k int64) {
	srcOut := s.OutRect()
	dstOut := d.OutRect()
	w := covered.Dx()
	if w <= 0 || covered.Dy() <= 0 {
		return
	}
	if k == 1 {
		// Same zoom: either op is the identity, so each covered row is
		// one contiguous memmove.
		for y := covered.Y0; y < covered.Y1; y++ {
			di := pixOffset(dstOut, covered.X0, y)
			si := pixOffset(srcOut, covered.X0, y)
			copy(dstData[di:di+w*BytesPerPixel], srcData[si:si+w*BytesPerPixel])
		}
		return
	}
	switch d.Op {
	case Subsample:
		sStride := k * BytesPerPixel
		for y := covered.Y0; y < covered.Y1; y++ {
			si := pixOffset(srcOut, covered.X0*k, y*k)
			di := pixOffset(dstOut, covered.X0, y)
			subsampleRow(dstData[di:di+w*BytesPerPixel], srcData, si, sStride, w)
		}
	case Average:
		srcStride := srcOut.Dx() * BytesPerPixel
		for y := covered.Y0; y < covered.Y1; y++ {
			di := pixOffset(dstOut, covered.X0, y)
			blockAverageRow(dstData[di:], srcData, pixOffset(srcOut, covered.X0*k, y*k), srcStride, k, w)
		}
	}
}

// ComputeRaw implements query.App: compute output pixels of outSub (output
// coordinates) from raw chunks. "The chunks that intersect the query region
// are retrieved from disk. A retrieved chunk is first clipped to the query
// window. The clipped chunk is then processed to compute the output image at
// the desired magnification" (§3).
//
// The chunks are read by query.ForEachPage with App.Parallelism workers;
// real-data averaging with more than one worker splits into row bands first
// (computeAverageBands), because its accumulator cannot be shared.
func (a *App) ComputeRaw(ctx rt.Ctx, m query.Meta, outSub geom.Rect, out *query.Blob, pr query.PageReader) int64 {
	mm := m.(Meta)
	l := a.Table.Get(mm.DS)
	baseNeed := outSub.Mul(mm.Zoom).Intersect(mm.Rect)
	if baseNeed.Empty() {
		return 0
	}
	pages := l.PagesInRect(baseNeed)
	workers := query.ResolveParallelism(a.Parallelism)
	if workers > len(pages) {
		workers = len(pages)
	}
	if workers > 1 && mm.Op == Average && out.Data != nil {
		return a.computeAverageBands(ctx, mm, l, baseNeed, outSub, out, pr, workers)
	}
	return a.computePages(ctx, mm, l, baseNeed, baseNeed, out, pr, pages, workers)
}

// computePages clips, charges and processes every page of the list under
// need, one ForEachPage call. Subsampled pages write disjoint output
// regions, so workers share out.Data without coordination; real-data
// averaging resolves the cells inside one page in place but gathers the
// cells a page edge cuts in one accumulator, and therefore arrives here with
// one worker (or one band). A page's bytes and per-page overhead are charged
// only when its clip to baseNeed starts inside need — always, except for a
// band that shares a boundary page with the band above it.
func (a *App) computePages(ctx rt.Ctx, mm Meta, l *dataset.Layout, baseNeed, need geom.Rect, out *query.Blob, pr query.PageReader, pages []int, workers int) int64 {
	var acc *avgAccum
	if out.Data != nil && mm.Op == Average {
		acc = newAvgAccum(mm, l, pages, need)
	}
	var read atomic.Int64 // one add per 64 KB page: workers do not contend on it
	query.ForEachPage(ctx, pr, mm.DS, pages, a.PrefetchDepth, workers, func(_, i int, data []byte) {
		p := pages[i]
		pageRect := l.PageRect(p)
		piece := pageRect.Intersect(need) // clip the chunk to the window
		if piece.Empty() {
			return
		}
		if pageRect.Intersect(baseNeed).Y0 >= need.Y0 {
			read.Add(l.PageBytes(p))
			ctx.Compute(a.Costs.PerPageOverhead)
		}
		switch mm.Op {
		case Subsample:
			outPiece := sampleGrid(piece, mm.Zoom)
			ctx.Compute(time.Duration(outPiece.Area()) * a.Costs.SubsamplePerOutPixel)
			if out.Data != nil && data != nil {
				subsamplePixels(data, pageRect, out.Data, mm, outPiece)
			}
		case Average:
			ctx.Compute(time.Duration(piece.Area()) * a.Costs.AveragePerInPixel)
			if acc != nil && data != nil {
				acc.page(out.Data, data, pageRect, piece)
			}
		}
	})
	if acc != nil {
		// Not deferred: a pass that panics drops its scratch rather than
		// pool cells finish has not zeroed.
		acc.finish(out.Data)
		acc.release()
	}
	return read.Load()
}

// computeAverageBands parallelizes averaging by splitting the output rows of
// outSub into one horizontal band per worker. Band edges in base coordinates
// are multiples of the zoom, so no output cell straddles two bands: every
// worker resolves exactly its own cells — in place, or through a band-sized
// accumulator for the ones a page edge cuts — into its disjoint slice of
// out.Data. Compared to fanning pages into per-worker accumulators this
// needs no merge pass and finishes in parallel. Within a band pages fold in
// file order, and integer sums
// commute, so the result is byte-identical to the serial loop. A page
// straddling a band boundary is read by each band that needs it (the page
// space serves the later reads from cache) but its bytes and per-page
// overhead are charged only to the topmost band, matching serial accounting.
func (a *App) computeAverageBands(ctx rt.Ctx, mm Meta, l *dataset.Layout, baseNeed, outSub geom.Rect, out *query.Blob, pr query.PageReader, workers int) int64 {
	var read atomic.Int64
	per := (outSub.Dy() + int64(workers) - 1) / int64(workers)
	query.FanOut(ctx, workers, workers, func(_, w int) {
		y0 := outSub.Y0 + int64(w)*per
		bandOut := geom.R(outSub.X0, y0, outSub.X1, min(y0+per, outSub.Y1))
		bandNeed := bandOut.Mul(mm.Zoom).Intersect(baseNeed)
		if bandNeed.Empty() {
			return
		}
		read.Add(a.computePages(ctx, mm, l, baseNeed, bandNeed, out, pr, l.PagesInRect(bandNeed), 1))
	})
	return read.Load()
}

// sampleGrid returns the output pixels whose subsample point (X·z, Y·z)
// falls inside base.
func sampleGrid(base geom.Rect, z int64) geom.Rect {
	if base.Empty() {
		return geom.Rect{}
	}
	t := geom.Rect{
		X0: geom.CeilDiv(base.X0, z),
		Y0: geom.CeilDiv(base.Y0, z),
		X1: geom.FloorDiv(base.X1-1, z) + 1,
		Y1: geom.FloorDiv(base.Y1-1, z) + 1,
	}
	return t.Canon()
}

// pixOffset returns the byte offset of output pixel (x, y) in a blob laid
// out row-major over grid.
func pixOffset(grid geom.Rect, x, y int64) int64 {
	return ((y-grid.Y0)*grid.Dx() + (x - grid.X0)) * BytesPerPixel
}

// subsamplePixels writes every z-th input pixel into the output blob, one
// row at a time: the source offset advances by a fixed 3·z-byte stride and
// z == 1 rows (the contiguous case) degenerate to single memmoves.
func subsamplePixels(page []byte, pageRect geom.Rect, dst []byte, m Meta, outPiece geom.Rect) {
	dstOut := m.OutRect()
	w := outPiece.Dx()
	if w <= 0 || outPiece.Dy() <= 0 {
		return
	}
	z := m.Zoom
	if z == 1 {
		for y := outPiece.Y0; y < outPiece.Y1; y++ {
			si := pixOffset3(pageRect, outPiece.X0, y)
			di := pixOffset(dstOut, outPiece.X0, y)
			copy(dst[di:di+w*BytesPerPixel], page[si:si+w*BytesPerPixel])
		}
		return
	}
	sStride := z * BytesPerPixel
	for y := outPiece.Y0; y < outPiece.Y1; y++ {
		si := pixOffset3(pageRect, outPiece.X0*z, y*z)
		di := pixOffset(dstOut, outPiece.X0, y)
		subsampleRow(dst[di:di+w*BytesPerPixel], page, si, sStride, w)
	}
}

// subsampleRow gathers w source pixels spaced sStride ≥ 6 bytes apart
// starting at src[si] and packs them contiguously into the 3·w-byte dst.
// Eight gathered pixels pack into three 8-byte stores, the tail into
// narrower stores whose stray high bytes are overwritten by the next
// group; the final pixel is written exactly. Every wide source read stays
// inside the bytes the last pixel's own 3-byte read proves present,
// because the reads start at least sStride-4 bytes before it.
func subsampleRow(dst, src []byte, si, sStride, w int64) {
	const m = 0xffffff
	x := int64(0)
	if sStride == 12 {
		// Zoom 2 on a zoom-1 source and zoom-4 raw pages both gather at
		// a 12-byte stride; the literal offsets below fold into load
		// displacements instead of per-group index arithmetic.
		for ; x+8 < w; x += 8 {
			p0 := uint64(binary.LittleEndian.Uint32(src[si:]))
			p1 := uint64(binary.LittleEndian.Uint32(src[si+12:]))
			p2 := uint64(binary.LittleEndian.Uint32(src[si+24:]))
			p3 := uint64(binary.LittleEndian.Uint32(src[si+36:]))
			p4 := uint64(binary.LittleEndian.Uint32(src[si+48:]))
			p5 := uint64(binary.LittleEndian.Uint32(src[si+60:]))
			p6 := uint64(binary.LittleEndian.Uint32(src[si+72:]))
			p7 := uint64(binary.LittleEndian.Uint32(src[si+84:]))
			binary.LittleEndian.PutUint64(dst[3*x:], p0&m|p1<<24)
			binary.LittleEndian.PutUint64(dst[3*x+6:], p2&m|p3<<24)
			binary.LittleEndian.PutUint64(dst[3*x+12:], p4&m|p5<<24)
			binary.LittleEndian.PutUint64(dst[3*x+18:], p6&m|p7<<24)
			si += 96
		}
	} else {
		for ; x+8 < w; x += 8 {
			p0 := uint64(binary.LittleEndian.Uint32(src[si:]))
			p1 := uint64(binary.LittleEndian.Uint32(src[si+sStride:]))
			p2 := uint64(binary.LittleEndian.Uint32(src[si+2*sStride:]))
			p3 := uint64(binary.LittleEndian.Uint32(src[si+3*sStride:]))
			p4 := uint64(binary.LittleEndian.Uint32(src[si+4*sStride:]))
			p5 := uint64(binary.LittleEndian.Uint32(src[si+5*sStride:]))
			p6 := uint64(binary.LittleEndian.Uint32(src[si+6*sStride:]))
			p7 := uint64(binary.LittleEndian.Uint32(src[si+7*sStride:]))
			binary.LittleEndian.PutUint64(dst[3*x:], p0&m|p1<<24)
			binary.LittleEndian.PutUint64(dst[3*x+6:], p2&m|p3<<24)
			binary.LittleEndian.PutUint64(dst[3*x+12:], p4&m|p5<<24)
			binary.LittleEndian.PutUint64(dst[3*x+18:], p6&m|p7<<24)
			si += 8 * sStride
		}
	}
	for ; x+4 < w; x += 4 {
		p0 := uint64(binary.LittleEndian.Uint32(src[si:]))
		p1 := uint64(binary.LittleEndian.Uint32(src[si+sStride:]))
		p2 := uint64(binary.LittleEndian.Uint32(src[si+2*sStride:]))
		p3 := uint64(binary.LittleEndian.Uint32(src[si+3*sStride:]))
		binary.LittleEndian.PutUint64(dst[3*x:], p0&m|p1<<24)
		binary.LittleEndian.PutUint64(dst[3*x+6:], p2&m|p3<<24)
		si += 4 * sStride
	}
	for ; x+2 < w; x += 2 {
		lo := uint64(binary.LittleEndian.Uint32(src[si:]))
		hi := uint64(binary.LittleEndian.Uint32(src[si+sStride:]))
		binary.LittleEndian.PutUint64(dst[3*x:], lo&m|hi<<24)
		si += 2 * sStride
	}
	for ; x+1 < w; x++ {
		binary.LittleEndian.PutUint32(dst[3*x:], binary.LittleEndian.Uint32(src[si:]))
		si += sStride
	}
	dst[3*(w-1)] = src[si]
	dst[3*(w-1)+1] = src[si+1]
	dst[3*(w-1)+2] = src[si+2]
}

// pixOffset3 returns the byte offset of base pixel (x, y) in a page laid out
// row-major over pageRect at 3 bytes/pixel.
func pixOffset3(pageRect geom.Rect, x, y int64) int64 {
	return ((y-pageRect.Y0)*pageRect.Dx() + (x - pageRect.X0)) * BytesPerPixel
}

// blockAverageRow writes into dst[:3w] the floor mean of each of w whole k×k
// cells of src: cell c covers the 3k bytes at si+3kc of each of the k rows
// that start stride bytes apart. It is the one averaging kernel — ComputeRaw
// runs it over a page's interior (stride: the page's row) and Project over a
// cached result (stride: the blob's row) — and its sums match the scalar
// references bit for bit.
func blockAverageRow(dst, src []byte, si, stride, k, w int64) {
	switch k {
	case 1:
		copy(dst[:3*w], src[si:si+3*w])
	case 2:
		// Row pairs: each cell is two pixels of each row, its mean of four
		// a shift. Re-slicing per cell lets the compiler drop the per-byte
		// bounds checks; a 16-bit-lane SWAR form measured no faster.
		r0, r1 := src[si:si+6*w], src[si+stride:si+stride+6*w]
		for x := int64(0); x < w; x++ {
			a, b, d := r0[6*x:6*x+6], r1[6*x:6*x+6], dst[3*x:3*x+3]
			d[0] = byte((uint(a[0]) + uint(a[3]) + uint(b[0]) + uint(b[3])) >> 2)
			d[1] = byte((uint(a[1]) + uint(a[4]) + uint(b[1]) + uint(b[4])) >> 2)
			d[2] = byte((uint(a[2]) + uint(a[5]) + uint(b[2]) + uint(b[5])) >> 2)
		}
	default:
		// Four pixels (12 bytes) per step: in a little-endian 8-byte load,
		// bytes {0,3,6} are one channel. Masking with mask and multiplying
		// by mul places their exact sum (≤ 765, no lane overflow — the
		// partial sums below bit 48 stay under 2^33) in bits 48..63, so one
		// mask+multiply+shift folds three samples; shifting the word right
		// by 8 or 16 first reuses both constants for the other channels.
		const (
			mask = 0x00FF0000FF0000FF
			mul  = 0x0001000001000001
		)
		n := uint64(k * k)
		var magic uint64
		if n < 1<<28 {
			magic = avgMagic(n)
		}
		cw := 3 * k
		for x := int64(0); x < w; x++ {
			var r, g, b uint64
			for v := int64(0); v < k; v++ {
				c := src[si+v*stride+cw*x:][:cw]
				u := int64(0)
				for ; u+12 <= cw; u += 12 {
					u0 := binary.LittleEndian.Uint64(c[u:])
					u1 := uint64(binary.LittleEndian.Uint32(c[u+8:]))
					r += (u0&mask)*mul>>48 + (u1>>8)&0xff
					g += (u0>>8&mask)*mul>>48 + (u1>>16)&0xff
					b += (u0>>16&mask)*mul>>48 + u1&0xff + u1>>24
				}
				for ; u < cw; u += 3 {
					r += uint64(c[u])
					g += uint64(c[u+1])
					b += uint64(c[u+2])
				}
			}
			d := dst[3*x : 3*x+3]
			if magic != 0 {
				r, _ = bits.Mul64(r, magic)
				g, _ = bits.Mul64(g, magic)
				b, _ = bits.Mul64(b, magic)
			} else {
				r, g, b = r/n, g/n, b/n
			}
			d[0], d[1], d[2] = byte(r), byte(g), byte(b)
		}
	}
}

// avgMagic returns m = ceil(2^64/n), such that floor(x/n) is exactly the
// high word of x·m for every averaging numerator x ≤ 255·n. (The error of
// m relative to 2^64/n is under 1/n·2^-64 per unit of x, so the quotient
// stays exact while 255·n² < 2^64 — callers fall back to plain division
// for n ≥ 2^28, far beyond any real zoom.) n must be ≥ 2.
func avgMagic(n uint64) uint64 { return ^uint64(0)/n + 1 }

// avgAccum is the part of one averaging pass that outlives a page: the
// output cells a page edge cuts. A cell whose window lies inside one page
// is resolved from that page in place (page); a cut cell gathers RGB sums
// and a pixel count from every page that delivers part of it, and finish
// divides by the pixels actually folded, so a page that returned no data
// leaves its neighbours' share intact. Cut cells are the output rows at each
// horizontal page edge inside the grid and the columns at each vertical
// one, so the scratch is O(page edges × grid side), not O(grid area).
type avgAccum struct {
	out     geom.Rect // the query's output grid, which dst is laid out over
	grid    geom.Rect // the output cells of need
	zoom    int64
	rowSlot []int32 // per grid row: its strip among the cut rows, or -1
	colSlot []int32 // per grid column: its strip among the cut columns, or -1
	colBase int64   // index in cells of the first cut column's strip
	// cells holds R, G, B and the pixel count of every cut cell: a strip of
	// grid.Dx() per cut row, then one of grid.Dy() per cut column (whose
	// entries in cut rows stay unused). finish zeroes what it resolves. The
	// sums are 64-bit: 255·zoom² passes 2³² from zoom 4105, which a request
	// for a large slide may ask for.
	cells [][4]uint64
}

// avgAccumPool recycles accumulator scratch between queries. Pooled cells
// are all zero: finish zeroes every cell it resolves, and a pass that does
// not reach finish is not released.
var avgAccumPool sync.Pool

// newAvgAccum returns the accumulator of an averaging pass of m over need,
// whose page list is pages. A cell is cut when a page edge, or need's own,
// falls strictly inside its window. Pair with finish and release.
func newAvgAccum(m Meta, l *dataset.Layout, pages []int, need geom.Rect) *avgAccum {
	a, _ := avgAccumPool.Get().(*avgAccum)
	if a == nil {
		a = &avgAccum{}
	}
	z := m.Zoom
	a.out, a.grid, a.zoom = m.OutRect(), need.Scale(z), z
	a.rowSlot = unslotted(a.rowSlot, a.grid.Dy())
	a.colSlot = unslotted(a.colSlot, a.grid.Dx())
	var rows, cols int32
	cut := func(slots []int32, n *int32, e, g0 int64) {
		if i := geom.FloorDiv(e, z) - g0; e%z != 0 && i >= 0 && i < int64(len(slots)) && slots[i] < 0 {
			slots[i] = *n
			*n++
		}
	}
	edges := func(r geom.Rect) {
		cut(a.colSlot, &cols, r.X0, a.grid.X0)
		cut(a.colSlot, &cols, r.X1, a.grid.X0)
		cut(a.rowSlot, &rows, r.Y0, a.grid.Y0)
		cut(a.rowSlot, &rows, r.Y1, a.grid.Y0)
	}
	edges(need)
	for _, p := range pages {
		edges(l.PageRect(p))
	}
	a.colBase = int64(rows) * a.grid.Dx()
	n := a.colBase + int64(cols)*a.grid.Dy()
	if int64(cap(a.cells)) >= n {
		a.cells = a.cells[:n]
	} else {
		a.cells = make([][4]uint64, n)
	}
	return a
}

// unslotted returns s resized to n entries, all -1.
func unslotted(s []int32, n int64) []int32 {
	if int64(cap(s)) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}

// release returns the accumulator's scratch to the pool.
func (a *avgAccum) release() { avgAccumPool.Put(a) }

// page averages piece — the part of need inside page, whose bytes are laid
// out over pageRect — into dst. The cells inside piece go straight through
// blockAverageRow; the rest of piece, less than a cell deep along the edges
// that cut one, is folded into the cut cells.
func (a *avgAccum) page(dst, page []byte, pageRect, piece geom.Rect) {
	z := a.zoom
	in := piece.ScaleInner(z)
	if in.Empty() {
		a.add(page, pageRect, piece)
		return
	}
	stride := pageRect.Dx() * BytesPerPixel
	for oy := in.Y0; oy < in.Y1; oy++ {
		blockAverageRow(dst[pixOffset(a.out, in.X0, oy):], page, pixOffset3(pageRect, in.X0*z, oy*z), stride, z, in.Dx())
	}
	core := in.Mul(z)
	a.add(page, pageRect, geom.R(piece.X0, piece.Y0, piece.X1, core.Y0))
	a.add(page, pageRect, geom.R(piece.X0, core.Y1, piece.X1, piece.Y1))
	a.add(page, pageRect, geom.R(piece.X0, core.Y0, core.X0, core.Y1))
	a.add(page, pageRect, geom.R(core.X1, core.Y0, piece.X1, core.Y1))
}

// add folds the pixels of r (inside pageRect's payload) into the cut cells
// they belong to, one cell at a time.
func (a *avgAccum) add(page []byte, pageRect, r geom.Rect) {
	if r.Empty() {
		return
	}
	z := a.zoom
	stride := pageRect.Dx() * BytesPerPixel
	for oy := geom.FloorDiv(r.Y0, z); oy*z < r.Y1; oy++ {
		y0, y1 := max(oy*z, r.Y0), min(oy*z+z, r.Y1)
		for ox := geom.FloorDiv(r.X0, z); ox*z < r.X1; ox++ {
			x0, x1 := max(ox*z, r.X0), min(ox*z+z, r.X1)
			var rs, gs, bs uint64
			row := pixOffset3(pageRect, x0, y0)
			for y := y0; y < y1; y++ {
				px := page[row : row+3*(x1-x0)]
				for i := 0; i < len(px); i += 3 {
					rs += uint64(px[i])
					gs += uint64(px[i+1])
					bs += uint64(px[i+2])
				}
				row += stride
			}
			c := a.cell(ox, oy)
			c[0] += rs
			c[1] += gs
			c[2] += bs
			c[3] += uint64((x1 - x0) * (y1 - y0))
		}
	}
}

// cell returns the entry of cut cell (ox, oy).
func (a *avgAccum) cell(ox, oy int64) *[4]uint64 {
	x, y := ox-a.grid.X0, oy-a.grid.Y0
	if s := a.rowSlot[y]; s >= 0 {
		return &a.cells[int64(s)*a.grid.Dx()+x]
	}
	s := a.colSlot[x]
	if s < 0 {
		panic(fmt.Sprintf("vm: averaging folded pixels into cell (%d, %d), which no page edge cuts", ox, oy))
	}
	return &a.cells[a.colBase+int64(s)*a.grid.Dy()+y]
}

// finish writes every cut cell that received pixels into dst and zeroes it.
func (a *avgAccum) finish(dst []byte) {
	gw, gh := a.grid.Dx(), a.grid.Dy()
	resolve := func(c *[4]uint64, x, y int64) {
		if n := c[3]; n != 0 {
			di := pixOffset(a.out, a.grid.X0+x, a.grid.Y0+y)
			dst[di], dst[di+1], dst[di+2] = byte(c[0]/n), byte(c[1]/n), byte(c[2]/n)
			*c = [4]uint64{}
		}
	}
	for y, s := range a.rowSlot {
		for x := int64(0); s >= 0 && x < gw; x++ {
			resolve(&a.cells[int64(s)*gw+x], x, int64(y))
		}
	}
	for x, s := range a.colSlot {
		for y := int64(0); s >= 0 && y < gh; y++ {
			resolve(&a.cells[a.colBase+int64(s)*gh+y], int64(x), y)
		}
	}
}
