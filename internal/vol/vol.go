// Package vol implements the paper's second future-work direction —
// "additional data analysis applications (e.g., scientific visualization of
// 3-dimensional datasets)" (§6) — on the same runtime system and operator
// model as the Virtual Microscope.
//
// A dataset is a W×H×D voxel volume (1-byte intensities), stored as a stack
// of D slices: slice z occupies rows [z·H, (z+1)·H) of a single 2-D layout,
// so the existing chunk index, page space manager and disk farm are reused
// unchanged. A query names an axis-aligned slab [Z0, Z1), a 2-D window at
// base resolution, an xy zoom factor, and a projection operator:
//
//   - MIP: maximum-intensity projection along z (the standard volume
//     visualization operator);
//   - MeanZ: average intensity along z.
//
// Both operators commute with xy coarsening (max of maxes, mean of means),
// so a cached result at a finer zoom can be projected onto a coarser query
// exactly like VM images — the overlap index is the Equation (4) analogue
// with the additional requirement that the slab match.
package vol

import (
	"fmt"
	"sync"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
)

// Op is a z-projection operator.
type Op uint8

const (
	// MIP takes the maximum intensity along z.
	MIP Op = iota
	// MeanZ averages intensities along z.
	MeanZ
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case MIP:
		return "mip"
	case MeanZ:
		return "meanz"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Dims are the logical dimensions of one volume.
type Dims struct {
	Width, Height int64
	Depth         int
}

// PageSide is the tile edge for volume slices: 256×256 1-byte voxels =
// 64 KB pages, matching the paper's chunk size.
const PageSide = 256

// NewVolume builds the stacked 2-D layout backing a W×H×D volume.
func NewVolume(name string, width, height int64, depth int) *dataset.Layout {
	if depth < 1 {
		panic(fmt.Sprintf("vol: depth %d < 1", depth))
	}
	return dataset.New(name, width, height*int64(depth), 1, PageSide)
}

// Meta is a volume query predicate.
type Meta struct {
	DS     string
	Window geom.Rect // in-slice xy window at base resolution, zoom-aligned
	Z0, Z1 int       // slab, half-open
	Zoom   int64     // xy coarsening factor ≥ 1
	Op     Op
	// SliceH is the volume's slice height, needed to embed the slab into
	// the stacked layout's coordinates; NewMeta fills it.
	SliceH int64
}

// NewMeta validates and builds a predicate against the volume's dimensions.
func NewMeta(ds string, dims Dims, window geom.Rect, z0, z1 int, zoom int64, op Op) Meta {
	if zoom < 1 {
		panic(fmt.Sprintf("vol: zoom %d < 1", zoom))
	}
	if window.Empty() {
		panic("vol: empty window")
	}
	if z0 < 0 || z1 <= z0 || z1 > dims.Depth {
		panic(fmt.Sprintf("vol: bad slab [%d,%d) for depth %d", z0, z1, dims.Depth))
	}
	if !geom.R(0, 0, dims.Width, dims.Height).Contains(window) {
		panic(fmt.Sprintf("vol: window %v outside %dx%d", window, dims.Width, dims.Height))
	}
	if window.X0%zoom != 0 || window.Y0%zoom != 0 || window.X1%zoom != 0 || window.Y1%zoom != 0 {
		panic(fmt.Sprintf("vol: window %v not aligned to zoom %d", window, zoom))
	}
	return Meta{DS: ds, Window: window, Z0: z0, Z1: z1, Zoom: zoom, Op: op, SliceH: dims.Height}
}

// Dataset implements query.Meta.
func (m Meta) Dataset() string { return m.DS }

// Region implements query.Meta: the bounding box of the slab in the stacked
// layout's coordinates (used only for candidate indexing; Overlap filters
// exactly).
func (m Meta) Region() geom.Rect {
	return geom.R(
		m.Window.X0, int64(m.Z0)*m.SliceH+m.Window.Y0,
		m.Window.X1, int64(m.Z1-1)*m.SliceH+m.Window.Y1,
	)
}

// String implements query.Meta.
func (m Meta) String() string {
	return fmt.Sprintf("vol(%s, %v, z=[%d,%d), zoom=%d, %v)", m.DS, m.Window, m.Z0, m.Z1, m.Zoom, m.Op)
}

// OutRect is the output grid in absolute output coordinates.
func (m Meta) OutRect() geom.Rect { return m.Window.Scale(m.Zoom) }

// Slices returns the slab thickness.
func (m Meta) Slices() int { return m.Z1 - m.Z0 }

// CostModel holds the synthetic-runtime CPU costs.
type CostModel struct {
	// PerInVoxel is charged per voxel folded into the projection.
	PerInVoxel time.Duration
	// ProjectPerSrcPixel is charged per source pixel touched while
	// projecting a cached image.
	ProjectPerSrcPixel time.Duration
	// PerPageOverhead is charged per chunk.
	PerPageOverhead time.Duration
}

// DefaultCosts returns the calibrated model: MIP over a slab touches every
// voxel, so volume queries are compute-heavy relative to VM subsampling.
func DefaultCosts() CostModel {
	return CostModel{
		PerInVoxel:         120 * time.Nanosecond,
		ProjectPerSrcPixel: 12 * time.Nanosecond,
		PerPageOverhead:    30 * time.Microsecond,
	}
}

// App is the volume visualization application.
type App struct {
	Table *dataset.Table
	Dims  map[string]Dims
	Costs CostModel
	// Parallelism bounds the worker goroutines one ComputeRaw call may fan
	// its tile list across on the real runtime; 0 selects GOMAXPROCS, 1 the
	// serial loop. See vm.App.Parallelism for the full contract.
	Parallelism int
}

// New builds the app. Register each volume with Add before querying it.
func New() *App {
	return &App{Dims: map[string]Dims{}, Costs: DefaultCosts()}
}

// Add registers a volume and returns its stacked layout; collect the layouts
// into the dataset table passed to the middleware.
func (a *App) Add(name string, dims Dims) *dataset.Layout {
	l := NewVolume(name, dims.Width, dims.Height, dims.Depth)
	a.Dims[name] = dims
	return l
}

// Finish records the dataset table (call once after all Adds).
func (a *App) Finish(table *dataset.Table) *App {
	a.Table = table
	return a
}

var _ query.App = (*App)(nil)
var _ query.ParallelComputer = (*App)(nil)

// Name implements query.App.
func (a *App) Name() string { return "volume-viz" }

// SetComputeParallelism implements query.ParallelComputer.
func (a *App) SetComputeParallelism(n int) { a.Parallelism = n }

// Cmp implements Equation (1).
func (a *App) Cmp(x, y query.Meta) bool {
	mx, okx := x.(Meta)
	my, oky := y.(Meta)
	return okx && oky && mx == my
}

// Overlap implements the Equation (4) analogue: xy area fraction times zoom
// ratio, gated on matching operator and slab.
func (a *App) Overlap(src, dst query.Meta) float64 {
	s, oks := src.(Meta)
	d, okd := dst.(Meta)
	if !oks || !okd || s.DS != d.DS || s.Op != d.Op {
		return 0
	}
	if s.Z0 != d.Z0 || s.Z1 != d.Z1 {
		return 0 // a projection along z cannot be re-sliced
	}
	if d.Zoom%s.Zoom != 0 {
		return 0
	}
	ia := s.Window.Intersect(d.Window).Area()
	if ia == 0 {
		return 0
	}
	return (float64(ia) / float64(d.Window.Area())) * (float64(s.Zoom) / float64(d.Zoom))
}

// QOutSize implements query.App: 1 byte per output pixel.
func (a *App) QOutSize(m query.Meta) int64 { return m.(Meta).OutRect().Area() }

// QInSize implements query.App: bytes of the chunks under the slab.
func (a *App) QInSize(m query.Meta) int64 {
	mm := m.(Meta)
	l := a.Table.Get(mm.DS)
	var total int64
	for z := mm.Z0; z < mm.Z1; z++ {
		total += l.InputBytes(mm.Window.Translate(0, int64(z)*mm.SliceH))
	}
	return total
}

// QCPUCost implements sched.CPUCostEstimator.
func (a *App) QCPUCost(m query.Meta) time.Duration {
	mm := m.(Meta)
	voxels := mm.Window.Area() * int64(mm.Slices())
	return time.Duration(voxels) * a.Costs.PerInVoxel
}

// OutputGrid implements query.App.
func (a *App) OutputGrid(m query.Meta) geom.Rect { return m.(Meta).OutRect() }

// NewBlob implements query.App.
func (a *App) NewBlob(ctx rt.Ctx, m query.Meta) *query.Blob {
	b := &query.Blob{Meta: m, Size: a.QOutSize(m)}
	if !ctx.Synthetic() {
		b.Data = make([]byte, b.Size)
	}
	return b
}

// Coverable implements query.App.
func (a *App) Coverable(src, dst query.Meta) geom.Rect {
	s, oks := src.(Meta)
	d, okd := dst.(Meta)
	if !oks || !okd || a.Overlap(s, d) == 0 {
		return geom.Rect{}
	}
	return s.Window.Intersect(d.Window).ScaleInner(d.Zoom)
}

// Project implements Equation (3): coarsen the cached projection image in
// xy (max or mean over k×k source pixels).
func (a *App) Project(ctx rt.Ctx, src *query.Blob, dst query.Meta, out *query.Blob) geom.Rect {
	s, ok := src.Meta.(Meta)
	if !ok {
		return geom.Rect{}
	}
	d := dst.(Meta)
	if a.Overlap(s, d) == 0 {
		return geom.Rect{}
	}
	covered := s.Window.Intersect(d.Window).ScaleInner(d.Zoom)
	if covered.Empty() {
		return geom.Rect{}
	}
	k := d.Zoom / s.Zoom
	ctx.Compute(time.Duration(covered.Area()*k*k) * a.Costs.ProjectPerSrcPixel)
	if out.Data != nil && src.Data != nil {
		projectPixels(src.Data, s.OutRect(), out.Data, d.OutRect(), covered, k, d.Op)
	}
	return covered
}

// projRowPool recycles the per-row scratch of projectPixels (max bytes or
// intensity sums, depending on the operator).
var (
	projMaxPool sync.Pool
	projSumPool sync.Pool
)

func getMaxRow(n int64) []byte {
	if p, _ := projMaxPool.Get().(*[]byte); p != nil && int64(cap(*p)) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putMaxRow(s []byte) { projMaxPool.Put(&s) }

func getSumRow(n int64) []uint64 {
	if p, _ := projSumPool.Get().(*[]uint64); p != nil && int64(cap(*p)) >= n {
		return (*p)[:n]
	}
	return make([]uint64, n)
}

func putSumRow(s []uint64) { projSumPool.Put(&s) }

// projectPixels coarsens the cached projection image one output row at a
// time: the operator switch and grid geometry are hoisted out of the inner
// loops, k == 1 degenerates to per-row memmoves (max and mean of one voxel
// are the voxel), and k > 1 folds k source rows into a pooled scratch row
// so the source image is read strictly sequentially.
func projectPixels(srcData []byte, srcOut geom.Rect, dstData []byte, dstOut, covered geom.Rect, k int64, op Op) {
	w := covered.Dx()
	if w <= 0 || covered.Dy() <= 0 {
		return
	}
	if k == 1 {
		for y := covered.Y0; y < covered.Y1; y++ {
			si := (y-srcOut.Y0)*srcOut.Dx() + (covered.X0 - srcOut.X0)
			di := (y-dstOut.Y0)*dstOut.Dx() + (covered.X0 - dstOut.X0)
			copy(dstData[di:di+w], srcData[si:si+w])
		}
		return
	}
	srcStride := srcOut.Dx()
	switch op {
	case MIP:
		mxs := getMaxRow(w)
		defer putMaxRow(mxs)
		for y := covered.Y0; y < covered.Y1; y++ {
			clear(mxs)
			si0 := (y*k-srcOut.Y0)*srcStride + (covered.X0*k - srcOut.X0)
			for v := int64(0); v < k; v++ {
				row := srcData[si0+v*srcStride:]
				row = row[:w*k]
				off := int64(0)
				for x := int64(0); x < w; x++ {
					mx := mxs[x]
					for u := int64(0); u < k; u++ {
						if row[off] > mx {
							mx = row[off]
						}
						off++
					}
					mxs[x] = mx
				}
			}
			di := (y-dstOut.Y0)*dstOut.Dx() + (covered.X0 - dstOut.X0)
			copy(dstData[di:di+w], mxs)
		}
	case MeanZ:
		sums := getSumRow(w)
		defer putSumRow(sums)
		n := uint64(k * k)
		for y := covered.Y0; y < covered.Y1; y++ {
			clear(sums)
			si0 := (y*k-srcOut.Y0)*srcStride + (covered.X0*k - srcOut.X0)
			for v := int64(0); v < k; v++ {
				row := srcData[si0+v*srcStride:]
				row = row[:w*k]
				off := int64(0)
				for x := int64(0); x < w; x++ {
					var s uint64
					for u := int64(0); u < k; u++ {
						s += uint64(row[off])
						off++
					}
					sums[x] += s
				}
			}
			di := (y-dstOut.Y0)*dstOut.Dx() + (covered.X0 - dstOut.X0)
			drow := dstData[di : di+w]
			for x := int64(0); x < w; x++ {
				drow[x] = byte(sums[x] / n)
			}
		}
	}
}

// ComputeRaw implements query.App: fold every voxel of the slab under
// outSub into the projection accumulator, reading slice tiles through
// query.ForEachPage over the slab's flattened (slice, tile) list with
// App.Parallelism workers. Each worker folds into its own accumulator and
// the accumulators are merged at the end — max-of-maxes and integer sums
// commute, so the output is byte-identical whatever the worker count; one
// worker means one accumulator and nothing to merge.
func (a *App) ComputeRaw(ctx rt.Ctx, m query.Meta, outSub geom.Rect, out *query.Blob, pr query.PageReader) int64 {
	mm := m.(Meta)
	l := a.Table.Get(mm.DS)
	baseNeed := outSub.Mul(mm.Zoom).Intersect(mm.Window)
	if baseNeed.Empty() {
		return 0
	}
	var pages []int
	var yOffs []int64 // z·SliceH of pages[i]'s slice
	for z := mm.Z0; z < mm.Z1; z++ {
		yOff := int64(z) * mm.SliceH
		for _, p := range l.PagesInRect(baseNeed.Translate(0, yOff)) {
			pages = append(pages, p)
			yOffs = append(yOffs, yOff)
		}
	}

	type workerState struct {
		acc  *projAccum
		read int64
		_    [48]byte // avoid false sharing between adjacent workers
	}
	workers := query.ResolveParallelism(a.Parallelism)
	states := make([]workerState, workers)
	query.ForEachPage(ctx, pr, mm.DS, pages, 0, workers, func(w, i int, data []byte) {
		st := &states[w]
		pageRect := l.PageRect(pages[i])
		piece := pageRect.Intersect(baseNeed.Translate(0, yOffs[i]))
		if piece.Empty() {
			return
		}
		st.read += l.PageBytes(pages[i])
		ctx.Compute(a.Costs.PerPageOverhead)
		ctx.Compute(time.Duration(piece.Area()) * a.Costs.PerInVoxel)
		if out.Data != nil && data != nil {
			if st.acc == nil {
				st.acc = newProjAccum(outSub, mm)
			}
			st.acc.add(data, pageRect, piece, yOffs[i])
		}
	})

	var read int64
	var acc *projAccum
	for i := range states {
		read += states[i].read
		if states[i].acc == nil {
			continue
		}
		if acc == nil {
			acc = states[i].acc
		} else {
			acc.merge(states[i].acc)
			states[i].acc.release()
		}
	}
	if acc != nil {
		acc.finish(out.Data, mm)
		acc.release()
	}
	return read
}

// projAccum folds voxels into per-output-pixel max and sum across pages and
// slices.
type projAccum struct {
	grid geom.Rect
	zoom int64
	mx   []byte
	sum  []uint64
	cnt  []uint32
}

// projAccumPool recycles accumulator scratch (see vm.avgAccumPool).
var projAccumPool sync.Pool

// newProjAccum returns a zeroed accumulator over grid, reusing pooled
// buffers when they are large enough. Pair with release.
func newProjAccum(grid geom.Rect, m Meta) *projAccum {
	n := grid.Area()
	a, _ := projAccumPool.Get().(*projAccum)
	if a == nil {
		a = &projAccum{}
	}
	a.grid, a.zoom = grid, m.Zoom
	if int64(cap(a.mx)) >= n {
		a.mx = a.mx[:n]
		clear(a.mx)
	} else {
		a.mx = make([]byte, n)
	}
	if int64(cap(a.sum)) >= n {
		a.sum = a.sum[:n]
		clear(a.sum)
	} else {
		a.sum = make([]uint64, n)
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
func (a *projAccum) release() { projAccumPool.Put(a) }

// add folds the voxels of piece (stacked coordinates; yOff = z·SliceH) into
// the accumulator, one run at a time: within a row every run of up to zoom
// consecutive voxels lands in the same output cell, so the output
// coordinates and grid-bounds check are resolved once per run instead of
// once per voxel, and the page bytes are walked with a single incrementing
// offset.
func (a *projAccum) add(page []byte, pageRect, piece geom.Rect, yOff int64) {
	z := a.zoom
	gw := a.grid.Dx()
	pStride := pageRect.Dx()
	for sy := piece.Y0; sy < piece.Y1; sy++ {
		by := sy - yOff // in-slice y
		oy := geom.FloorDiv(by, z)
		if oy < a.grid.Y0 || oy >= a.grid.Y1 {
			continue
		}
		rowIdx := (oy - a.grid.Y0) * gw
		si := (sy-pageRect.Y0)*pStride + (piece.X0 - pageRect.X0)
		bx := piece.X0
		ox := geom.FloorDiv(bx, z)
		for bx < piece.X1 {
			runEnd := (ox + 1) * z
			if runEnd > piece.X1 {
				runEnd = piece.X1
			}
			if ox >= a.grid.X0 && ox < a.grid.X1 {
				run := runEnd - bx
				idx := rowIdx + (ox - a.grid.X0)
				mx := a.mx[idx]
				var sum uint64
				for ; bx < runEnd; bx++ {
					v := page[si]
					if v > mx {
						mx = v
					}
					sum += uint64(v)
					si++
				}
				a.mx[idx] = mx
				a.sum[idx] += sum
				a.cnt[idx] += uint32(run)
			} else {
				si += runEnd - bx
				bx = runEnd
			}
			ox++
		}
	}
}

// merge folds b — an accumulator over the same grid — into a. Max-of-maxes
// and integer sums commute, so merging per-worker accumulators in any order
// gives the same result as one serial accumulation.
func (a *projAccum) merge(b *projAccum) {
	for i, v := range b.mx {
		if v > a.mx[i] {
			a.mx[i] = v
		}
	}
	for i, v := range b.sum {
		a.sum[i] += v
	}
	for i, v := range b.cnt {
		a.cnt[i] += v
	}
}

// finish writes the projected pixels into dst with the operator switch
// hoisted out of the loops and incremental offsets.
func (a *projAccum) finish(dst []byte, m Meta) {
	dstOut := m.OutRect()
	gw := a.grid.Dx()
	for y := a.grid.Y0; y < a.grid.Y1; y++ {
		idx := (y - a.grid.Y0) * gw
		di := (y-dstOut.Y0)*dstOut.Dx() + (a.grid.X0 - dstOut.X0)
		if m.Op == MIP {
			for x := int64(0); x < gw; x++ {
				if a.cnt[idx] != 0 {
					dst[di] = a.mx[idx]
				}
				idx++
				di++
			}
		} else {
			for x := int64(0); x < gw; x++ {
				if n := uint64(a.cnt[idx]); n != 0 {
					dst[di] = byte(a.sum[idx] / n)
				}
				idx++
				di++
			}
		}
	}
}
