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
// The pixel kernels (subsample, average accumulation, projection) are
// row-vectorized: offsets advance by fixed strides along each row instead of
// being recomputed per pixel, zoom-1 rows degenerate to single memmoves, and
// the averaging path resolves output cells once per run of Zoom input pixels.
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
		projectAverageRows(srcData, srcOut, dstData, dstOut, covered, k)
	}
}

// rowSumPool recycles the per-row RGB sum scratch of projectAverageRows.
var rowSumPool sync.Pool

func getRowSums(n int64) []uint64 {
	if p, _ := rowSumPool.Get().(*[]uint64); p != nil && int64(cap(*p)) >= n {
		return (*p)[:n]
	}
	return make([]uint64, n)
}

func putRowSums(s []uint64) { rowSumPool.Put(&s) }

// projectAverageRows coarsens k×k source pixels per covered output pixel,
// walking whole source rows: each output row accumulates its k source rows
// into a pooled row of RGB sums and divides once at the end, so the source
// image is read strictly sequentially and no per-pixel offsets are computed.
// Integer sums match the scalar reference bit-for-bit.
func projectAverageRows(srcData []byte, srcOut geom.Rect, dstData []byte, dstOut, covered geom.Rect, k int64) {
	w := covered.Dx()
	sums := getRowSums(3 * w)
	defer putRowSums(sums)
	n := uint64(k * k)
	var magic uint64
	if n >= 2 && n < 1<<28 {
		magic = avgMagic(n)
	}
	srcStride := srcOut.Dx() * BytesPerPixel
	for y := covered.Y0; y < covered.Y1; y++ {
		clear(sums)
		si0 := pixOffset(srcOut, covered.X0*k, y*k)
		rowLen := w * k * BytesPerPixel
		safe12 := rowLen - 12
		for v := int64(0); v < k; v++ {
			row := srcData[si0+v*srcStride:]
			row = row[:rowLen]
			off := int64(0)
			for x := int64(0); x < w; x++ {
				var r, g, b uint64
				u := int64(0)
				// Four pixels per step; see avgAccum.add.
				for ; u+3 < k && off <= safe12; u += 4 {
					u0 := binary.LittleEndian.Uint64(row[off:])
					u1 := uint64(binary.LittleEndian.Uint32(row[off+8:]))
					r += (u0&avgMaskR)*avgMulR>>48 + (u1>>8)&0xff
					g += (u0>>8&avgMaskR)*avgMulR>>48 + (u1>>16)&0xff
					b += (u0>>16&avgMaskR)*avgMulR>>48 + u1&0xff + u1>>24
					off += 12
				}
				for ; u < k; u++ {
					r += uint64(row[off])
					g += uint64(row[off+1])
					b += uint64(row[off+2])
					off += 3
				}
				sums[3*x] += r
				sums[3*x+1] += g
				sums[3*x+2] += b
			}
		}
		di := pixOffset(dstOut, covered.X0, y)
		drow := dstData[di : di+w*BytesPerPixel]
		if magic != 0 {
			for x := int64(0); x < w; x++ {
				q0, _ := bits.Mul64(sums[3*x], magic)
				q1, _ := bits.Mul64(sums[3*x+1], magic)
				q2, _ := bits.Mul64(sums[3*x+2], magic)
				drow[3*x] = byte(q0)
				drow[3*x+1] = byte(q1)
				drow[3*x+2] = byte(q2)
			}
		} else {
			for x := int64(0); x < w; x++ {
				drow[3*x] = byte(sums[3*x] / n)
				drow[3*x+1] = byte(sums[3*x+1] / n)
				drow[3*x+2] = byte(sums[3*x+2] / n)
			}
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
	return a.computePages(ctx, mm, l, baseNeed, baseNeed, outSub, out, pr, pages, workers)
}

// computePages clips, charges and processes every page of the list under
// need, one ForEachPage call. Subsampled pages write disjoint output
// regions, so workers share out.Data without coordination; real-data
// averaging accumulates across chunk boundaries in one accumulator over
// accGrid and therefore arrives here with one worker (or one band). A page's
// bytes and per-page overhead are charged only when its clip to baseNeed
// starts inside need — always, except for a band that shares a boundary page
// with the band above it.
func (a *App) computePages(ctx rt.Ctx, mm Meta, l *dataset.Layout, baseNeed, need, accGrid geom.Rect, out *query.Blob, pr query.PageReader, pages []int, workers int) int64 {
	var acc *avgAccum
	if out.Data != nil && mm.Op == Average {
		acc = newAvgAccum(accGrid, mm.Zoom)
		defer acc.release()
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
				acc.add(data, pageRect, piece)
			}
		}
	})
	if acc != nil {
		acc.finish(out.Data, mm)
	}
	return read.Load()
}

// computeAverageBands parallelizes averaging by splitting the output rows of
// outSub into one horizontal band per worker. Band edges in base coordinates
// are multiples of the zoom, so no output cell straddles two bands: every
// worker accumulates exactly the source pixels of its own cells into a
// band-sized accumulator and resolves them straight into its disjoint slice
// of out.Data. Compared to fanning pages into per-worker full-grid
// accumulators this needs no merge pass, zeroes workers× less scratch, and
// finishes in parallel — the costs that otherwise swamp the kernel speedup on
// large queries. Within a band pages fold in file order, and integer sums
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
		read.Add(a.computePages(ctx, mm, l, baseNeed, bandNeed, bandOut, out, pr, l.PagesInRect(bandNeed), 1))
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

// avgAccum accumulates per-output-pixel RGB sums across chunks: one output
// pixel's N×N window can straddle several pages, so sums and counts persist
// across ComputeRaw's page loop.
type avgAccum struct {
	grid geom.Rect
	zoom int64
	sums []uint64 // 3 per pixel
	cnt  []uint32
}

// SWAR constants for averaging interleaved RGB: in a little-endian 8-byte
// load, bytes {0,3,6} are the same channel. Masking with avgMaskR and
// multiplying by avgMulR places their exact sum (≤ 765, no lane overflow —
// the partial sums below bit 48 stay under 2^33) in bits 48..63, so one
// mask+multiply+shift folds three samples; shifting the word right by 8 or
// 16 first reuses the same constants for the other two channels.
const (
	avgMaskR = 0x00FF0000FF0000FF
	avgMulR  = 0x0001000001000001
)

// avgMagic returns m = ceil(2^64/n), such that floor(x/n) is exactly the
// high word of x·m for every averaging numerator x ≤ 255·n. (The error of
// m relative to 2^64/n is under 1/n·2^-64 per unit of x, so the quotient
// stays exact while 255·n² < 2^64 — callers fall back to plain division
// for n ≥ 2^28, far beyond any real zoom.) n must be ≥ 2.
func avgMagic(n uint64) uint64 { return ^uint64(0)/n + 1 }

// avgAccumPool recycles accumulator scratch: the sums and counts for a large
// output grid are the biggest per-query allocations on the real runtime, and
// query threads churn through one (or, fanned out, several) per query.
var avgAccumPool sync.Pool

// newAvgAccum returns a zeroed accumulator over grid, reusing pooled
// buffers when they are large enough. Pair with release.
func newAvgAccum(grid geom.Rect, zoom int64) *avgAccum {
	n := grid.Area()
	a, _ := avgAccumPool.Get().(*avgAccum)
	if a == nil {
		a = &avgAccum{}
	}
	a.grid, a.zoom = grid, zoom
	if int64(cap(a.sums)) >= 3*n {
		a.sums = a.sums[:3*n]
		clear(a.sums)
	} else {
		a.sums = make([]uint64, 3*n)
	}
	if int64(cap(a.cnt)) >= n {
		a.cnt = a.cnt[:n]
		clear(a.cnt)
	} else {
		a.cnt = make([]uint32, n)
	}
	return a
}

// release returns the accumulator's scratch buffers to the pool.
func (a *avgAccum) release() { avgAccumPool.Put(a) }

// add folds the base pixels of piece (inside pageRect's payload) into the
// accumulator, one run at a time: within a row, every run of up to zoom
// consecutive input pixels lands in the same output cell, so the output
// coordinates and grid-bounds check are resolved once per run instead of
// once per pixel, and the page bytes are walked with a single incrementing
// offset.
func (a *avgAccum) add(page []byte, pageRect, piece geom.Rect) {
	z := a.zoom
	gw := a.grid.Dx()
	pStride := pageRect.Dx() * BytesPerPixel
	safe12 := int64(len(page)) - 12
	// Walk output cells band by band: all of a cell's source rows inside
	// piece are folded while its RGB sums sit in registers, so the
	// accumulator arrays take one read-modify-write per cell instead of
	// one per source row.
	for oy := geom.FloorDiv(piece.Y0, z); oy*z < piece.Y1; oy++ {
		if oy < a.grid.Y0 {
			continue
		}
		if oy >= a.grid.Y1 {
			break
		}
		y0, y1 := oy*z, oy*z+z
		if y0 < piece.Y0 {
			y0 = piece.Y0
		}
		if y1 > piece.Y1 {
			y1 = piece.Y1
		}
		rows := y1 - y0
		rowIdx := (oy - a.grid.Y0) * gw
		base := (y0-pageRect.Y0)*pStride - pageRect.X0*BytesPerPixel
		bx := piece.X0
		ox := geom.FloorDiv(bx, z)
		for bx < piece.X1 {
			runEnd := (ox + 1) * z
			if runEnd > piece.X1 {
				runEnd = piece.X1
			}
			if ox >= a.grid.X0 && ox < a.grid.X1 {
				run := runEnd - bx
				var r, g, b uint64
				si0 := base + bx*BytesPerPixel
				for v := int64(0); v < rows; v++ {
					si := si0
					cx := bx
					// Four pixels (12 bytes) per step: an 8-byte and
					// a 4-byte load, three mask-multiply horizontal
					// sums.
					for ; cx+3 < runEnd && si <= safe12; cx += 4 {
						u0 := binary.LittleEndian.Uint64(page[si:])
						u1 := uint64(binary.LittleEndian.Uint32(page[si+8:]))
						r += (u0&avgMaskR)*avgMulR>>48 + (u1>>8)&0xff
						g += (u0>>8&avgMaskR)*avgMulR>>48 + (u1>>16)&0xff
						b += (u0>>16&avgMaskR)*avgMulR>>48 + u1&0xff + u1>>24
						si += 12
					}
					for ; cx < runEnd; cx++ {
						r += uint64(page[si])
						g += uint64(page[si+1])
						b += uint64(page[si+2])
						si += 3
					}
					si0 += pStride
				}
				idx := rowIdx + (ox - a.grid.X0)
				a.sums[3*idx] += r
				a.sums[3*idx+1] += g
				a.sums[3*idx+2] += b
				a.cnt[idx] += uint32(run * rows)
			}
			bx = runEnd
			ox++
		}
	}
}

// finish writes the averaged pixels into dst, walking the grid and the
// output blob with incremental offsets. Interior cells all share the same
// count (zoom²), so the expensive per-cell division is replaced by a
// multiply with a reciprocal recomputed only when the count changes.
func (a *avgAccum) finish(dst []byte, m Meta) {
	dstOut := m.OutRect()
	gw := a.grid.Dx()
	var lastN, magic uint64
	for y := a.grid.Y0; y < a.grid.Y1; y++ {
		idx := (y - a.grid.Y0) * gw
		di := pixOffset(dstOut, a.grid.X0, y)
		for x := int64(0); x < gw; x++ {
			switch n := uint64(a.cnt[idx]); {
			case n == 0:
			case n == 1:
				dst[di] = byte(a.sums[3*idx])
				dst[di+1] = byte(a.sums[3*idx+1])
				dst[di+2] = byte(a.sums[3*idx+2])
			case n < 1<<28:
				if n != lastN {
					lastN, magic = n, avgMagic(n)
				}
				q0, _ := bits.Mul64(a.sums[3*idx], magic)
				q1, _ := bits.Mul64(a.sums[3*idx+1], magic)
				q2, _ := bits.Mul64(a.sums[3*idx+2], magic)
				dst[di] = byte(q0)
				dst[di+1] = byte(q1)
				dst[di+2] = byte(q2)
			default:
				dst[di] = byte(a.sums[3*idx] / n)
				dst[di+1] = byte(a.sums[3*idx+1] / n)
				dst[di+2] = byte(a.sums[3*idx+2] / n)
			}
			idx++
			di += BytesPerPixel
		}
	}
}
