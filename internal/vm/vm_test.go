package vm

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

// fakeCtx is a minimal rt.Ctx for direct kernel tests: real data, no timing.
// The charge is atomic because page workers call Compute concurrently.
type fakeCtx struct{ computed atomic.Int64 }

func (f *fakeCtx) charged() time.Duration { return time.Duration(f.computed.Load()) }

func (f *fakeCtx) Name() string            { return "test" }
func (f *fakeCtx) Now() time.Duration      { return 0 }
func (f *fakeCtx) Sleep(d time.Duration)   {}
func (f *fakeCtx) Compute(d time.Duration) { f.computed.Add(int64(d)) }
func (f *fakeCtx) Synthetic() bool         { return false }

// synCtx is a synthetic-mode Ctx that records charged compute.
type synCtx struct{ fakeCtx }

func (s *synCtx) Synthetic() bool { return true }

// directReader serves pages straight from the synthetic slide. The read
// counter is atomic because ComputeRaw reads pages from parallel workers
// when Parallelism allows it.
type directReader struct {
	l     *dataset.Layout
	reads atomic.Int64
	syn   bool
}

func (r *directReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	r.reads.Add(1)
	if r.syn {
		return nil
	}
	return GeneratePage(r.l, page)
}

// pageFunc serves pages from a function, which may return nil for a page
// that delivers no data.
type pageFunc func(page int) []byte

func (f pageFunc) ReadPage(_ rt.Ctx, _ string, page int) []byte { return f(page) }

func newApp(w, h int64) (*App, *dataset.Layout) {
	l := NewSlide("s1", w, h)
	return New(dataset.NewTable(l)), l
}

func TestOpParseString(t *testing.T) {
	for _, c := range []struct {
		s  string
		op Op
	}{{"subsample", Subsample}, {"sub", Subsample}, {"average", Average}, {"avg", Average}} {
		got, err := ParseOp(c.s)
		if err != nil || got != c.op {
			t.Errorf("ParseOp(%q) = %v, %v", c.s, got, err)
		}
	}
	if _, err := ParseOp("blur"); err == nil {
		t.Error("ParseOp should reject unknown op")
	}
	if Subsample.String() != "subsample" || Average.String() != "average" {
		t.Error("Op.String wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown Op string empty")
	}
}

func TestNewMetaValidation(t *testing.T) {
	NewMeta("s1", geom.R(0, 0, 64, 64), 4, Subsample) // ok
	for _, bad := range []func(){
		func() { NewMeta("s1", geom.R(0, 0, 63, 64), 4, Subsample) }, // misaligned
		func() { NewMeta("s1", geom.R(0, 0, 0, 64), 4, Subsample) },  // empty
		func() { NewMeta("s1", geom.R(0, 0, 64, 64), 0, Subsample) }, // zoom < 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestAlignRect(t *testing.T) {
	bounds := geom.R(0, 0, 1024, 1024)
	got := AlignRect(geom.R(3, 5, 61, 67), 8, bounds)
	if !got.Eq(geom.R(0, 0, 64, 72)) {
		t.Fatalf("AlignRect = %v", got)
	}
	// Clipping to bounds.
	got = AlignRect(geom.R(1000, 1000, 1030, 1030), 8, bounds)
	if !got.Eq(geom.R(1000, 1000, 1024, 1024)) {
		t.Fatalf("clipped AlignRect = %v", got)
	}
}

func TestOutRect(t *testing.T) {
	m := NewMeta("s1", geom.R(64, 128, 192, 256), 4, Subsample)
	if !m.OutRect().Eq(geom.R(16, 32, 48, 64)) {
		t.Fatalf("OutRect = %v", m.OutRect())
	}
	if got := m.OutRect().Area() * 3; got != 32*32*3 {
		t.Fatalf("out bytes = %d", got)
	}
}

func TestOverlapEquation4(t *testing.T) {
	app, _ := newApp(1024, 1024)
	base := NewMeta("s1", geom.R(0, 0, 512, 512), 2, Subsample)

	// Same zoom, half-area intersection: (I_A/O_A)·1.
	probe := NewMeta("s1", geom.R(256, 0, 768, 512), 2, Subsample)
	if got := app.Overlap(base, probe); got != 0.5 {
		t.Fatalf("same-zoom overlap = %v", got)
	}
	// Query at 2x the cached zoom: factor I_S/O_S = 1/2.
	probe4 := NewMeta("s1", geom.R(0, 0, 512, 512), 4, Subsample)
	if got := app.Overlap(base, probe4); got != 0.5 {
		t.Fatalf("cross-zoom overlap = %v", got)
	}
	// Non-multiple zoom: 0 ("Otherwise, the value of the overlap index is 0").
	probe3 := NewMeta("s1", geom.R(0, 0, 513, 513).Intersect(geom.R(0, 0, 512, 512)), 1, Subsample)
	_ = probe3
	src3 := NewMeta("s1", geom.R(0, 0, 510, 510), 3, Subsample)
	dst4 := NewMeta("s1", geom.R(0, 0, 512, 512), 4, Subsample)
	if got := app.Overlap(src3, dst4); got != 0 {
		t.Fatalf("non-multiple zoom overlap = %v", got)
	}
	// Finer query than cache (dst zoom 1, src zoom 2): 1 % 2 != 0 → 0.
	probe1 := NewMeta("s1", geom.R(0, 0, 512, 512), 1, Subsample)
	if got := app.Overlap(base, probe1); got != 0 {
		t.Fatalf("finer-query overlap = %v", got)
	}
	// Different op or dataset: 0.
	avg := NewMeta("s1", geom.R(0, 0, 512, 512), 2, Average)
	if got := app.Overlap(base, avg); got != 0 {
		t.Fatalf("cross-op overlap = %v", got)
	}
	other := NewMeta("s2", geom.R(0, 0, 512, 512), 2, Subsample)
	if got := app.Overlap(base, other); got != 0 {
		t.Fatalf("cross-ds overlap = %v", got)
	}
	// Exact match: overlap 1 and Cmp true.
	if got := app.Overlap(base, base); got != 1 {
		t.Fatalf("self overlap = %v", got)
	}
	if !app.Cmp(base, base) || app.Cmp(base, probe) {
		t.Fatal("Cmp wrong")
	}
}

func TestQSizes(t *testing.T) {
	app, l := newApp(1470, 1470)
	m := NewMeta("s1", geom.R(0, 0, 294, 294), 2, Subsample)
	if got := app.QOutSize(m); got != 147*147*3 {
		t.Fatalf("QOutSize = %d", got)
	}
	if got, want := app.QInSize(m), l.InputBytes(m.Rect); got != want {
		t.Fatalf("QInSize = %d, want %d", got, want)
	}
	if got := app.OutputGrid(m); !got.Eq(geom.R(0, 0, 147, 147)) {
		t.Fatalf("OutputGrid = %v", got)
	}
}

func TestSampleGrid(t *testing.T) {
	// Pixels sampled at multiples of 4 inside [5, 17): 8, 12, 16 → out 2..4.
	got := sampleGrid(geom.R(5, 5, 17, 17), 4)
	if !got.Eq(geom.R(2, 2, 5, 5)) {
		t.Fatalf("sampleGrid = %v", got)
	}
	// No multiple of 4 inside [5, 7).
	if got := sampleGrid(geom.R(5, 5, 7, 7), 4); !got.Empty() {
		t.Fatalf("sampleGrid tiny = %v", got)
	}
	if got := sampleGrid(geom.Rect{}, 4); !got.Empty() {
		t.Fatalf("sampleGrid empty = %v", got)
	}
}

// ComputeRaw over the full output grid must reproduce the oracle exactly,
// for both ops, several zooms, and windows straddling page boundaries.
func TestComputeRawMatchesOracle(t *testing.T) {
	app, l := newApp(600, 600)
	ctx := &fakeCtx{}
	for _, op := range []Op{Subsample, Average} {
		for _, zoom := range []int64{1, 2, 4} {
			// Window straddling several 147-pixel pages, zoom-aligned.
			r := AlignRect(geom.R(100, 130, 400, 310), zoom, l.Bounds())
			m := NewMeta("s1", r, zoom, op)
			out := app.NewBlob(ctx, m)
			pr := &directReader{l: l}
			read := app.ComputeRaw(ctx, m, m.OutRect(), out, pr)
			if read <= 0 || pr.reads.Load() == 0 {
				t.Fatalf("%v zoom %d: read=%d pages=%d", op, zoom, read, pr.reads.Load())
			}
			want := RenderOracle(m)
			if !bytes.Equal(out.Data, want) {
				t.Fatalf("%v zoom %d: output differs from oracle", op, zoom)
			}
		}
	}
}

// ComputeRaw of a sub-rectangle fills exactly that part of the blob.
func TestComputeRawPartial(t *testing.T) {
	app, l := newApp(600, 600)
	ctx := &fakeCtx{}
	m := NewMeta("s1", geom.R(0, 0, 400, 400), 4, Subsample)
	out := app.NewBlob(ctx, m)
	sub := geom.R(10, 20, 50, 60) // output coords within [0,100)
	app.ComputeRaw(ctx, m, sub, out, &directReader{l: l})

	want := make([]byte, len(out.Data))
	oracleRegion(m, sub, want)
	if !bytes.Equal(out.Data, want) {
		t.Fatal("partial ComputeRaw wrote wrong pixels")
	}
}

// Project from a same-zoom cached result reproduces the covered pixels and
// reports the correct covered region.
func TestProjectSameZoom(t *testing.T) {
	app, l := newApp(600, 600)
	ctx := &fakeCtx{}
	src := NewMeta("s1", geom.R(0, 0, 296, 296), 4, Subsample)
	srcBlob := app.NewBlob(ctx, src)
	app.ComputeRaw(ctx, src, src.OutRect(), srcBlob, &directReader{l: l})

	dst := NewMeta("s1", geom.R(148, 148, 444, 444), 4, Subsample)
	out := app.NewBlob(ctx, dst)
	covered := app.Project(ctx, srcBlob, dst, out)
	if !covered.Eq(geom.R(37, 37, 74, 74)) {
		t.Fatalf("covered = %v", covered)
	}
	want := make([]byte, len(out.Data))
	oracleRegion(dst, covered, want)
	if !bytes.Equal(out.Data, want) {
		t.Fatal("projected pixels differ from oracle")
	}
}

// Projecting a finer-zoom cached result (k = dstZoom/srcZoom > 1) is exact
// for both ops: subsample-of-subsample and average-of-average.
func TestProjectCrossZoom(t *testing.T) {
	for _, op := range []Op{Subsample, Average} {
		app, l := newApp(600, 600)
		ctx := &fakeCtx{}
		src := NewMeta("s1", geom.R(0, 0, 592, 592), 2, op)
		srcBlob := app.NewBlob(ctx, src)
		app.ComputeRaw(ctx, src, src.OutRect(), srcBlob, &directReader{l: l})

		dst := NewMeta("s1", geom.R(0, 0, 592, 592), 8, op)
		out := app.NewBlob(ctx, dst)
		covered := app.Project(ctx, srcBlob, dst, out)
		if !covered.Eq(dst.OutRect()) {
			t.Fatalf("%v: covered = %v, want full %v", op, covered, dst.OutRect())
		}
		want := RenderOracle(dst)
		if op == Subsample {
			// Subsample-of-subsample is bit-exact.
			if !bytes.Equal(out.Data, want) {
				t.Fatalf("%v: cross-zoom projection differs from oracle", op)
			}
			continue
		}
		// Average-of-averages incurs one extra integer floor per stage:
		// allow ±2 per channel.
		for i := range want {
			d := int(out.Data[i]) - int(want[i])
			if d < -2 || d > 2 {
				t.Fatalf("%v: pixel byte %d differs by %d", op, i, d)
			}
		}
	}
}

// Project returns empty for incompatible predicates.
func TestProjectIncompatible(t *testing.T) {
	app, _ := newApp(600, 600)
	ctx := &fakeCtx{}
	src := NewMeta("s1", geom.R(0, 0, 100, 100), 4, Subsample)
	srcBlob := app.NewBlob(ctx, src)
	dst := NewMeta("s1", geom.R(0, 0, 100, 100), 4, Average)
	out := app.NewBlob(ctx, dst)
	if got := app.Project(ctx, srcBlob, dst, out); !got.Empty() {
		t.Fatalf("cross-op project covered %v", got)
	}
	disjoint := NewMeta("s1", geom.R(400, 400, 500, 500), 4, Subsample)
	if got := app.Project(ctx, srcBlob, disjoint, app.NewBlob(ctx, disjoint)); !got.Empty() {
		t.Fatalf("disjoint project covered %v", got)
	}
}

// Synthetic mode charges compute proportional to work and allocates no data.
func TestSyntheticCosts(t *testing.T) {
	app, l := newApp(1470, 1470)
	ctx := &synCtx{}
	m := NewMeta("s1", geom.R(0, 0, 588, 588), 4, Average)
	out := app.NewBlob(ctx, m)
	if out.Data != nil {
		t.Fatal("synthetic blob should have no data")
	}
	pr := &directReader{l: l, syn: true}
	app.ComputeRaw(ctx, m, m.OutRect(), out, pr)
	// Averaging touches every input pixel: 588² pixels at 300ns plus page
	// overheads.
	wantMin := time.Duration(588*588) * app.Costs.AveragePerInPixel
	if ctx.charged() < wantMin {
		t.Fatalf("charged %v, want >= %v", ctx.charged(), wantMin)
	}
}

// The subsampling implementation must charge far less CPU than averaging at
// equal windows (this is what makes it I/O-intensive).
func TestSubsampleCheaperThanAverage(t *testing.T) {
	app, l := newApp(1470, 1470)
	window := geom.R(0, 0, 1176, 1176)
	var costs [2]time.Duration
	for i, op := range []Op{Subsample, Average} {
		ctx := &synCtx{}
		m := NewMeta("s1", window, 8, op)
		app.ComputeRaw(ctx, m, m.OutRect(), app.NewBlob(ctx, m), &directReader{l: l, syn: true})
		costs[i] = ctx.charged()
	}
	if costs[0]*10 > costs[1] {
		t.Fatalf("subsample %v vs average %v: expected >=10x gap at zoom 8", costs[0], costs[1])
	}
}

// Pixel determinism and page generation layout.
func TestPixelAndGeneratePage(t *testing.T) {
	r1, g1, b1 := Pixel("s1", 123, 456)
	r2, g2, b2 := Pixel("s1", 123, 456)
	if r1 != r2 || g1 != g2 || b1 != b2 {
		t.Fatal("Pixel not deterministic")
	}
	ra, _, _ := Pixel("s1", 123, 456)
	rb, _, _ := Pixel("other", 123, 456)
	_ = ra
	_ = rb // different datasets usually differ, but equality is not an error

	l := NewSlide("s1", 300, 300)
	page := l.NumPages() - 1 // ragged corner page
	data := GeneratePage(l, page)
	pr := l.PageRect(page)
	if int64(len(data)) != pr.Area()*3 {
		t.Fatalf("page payload %d bytes, want %d", len(data), pr.Area()*3)
	}
	// Spot-check a pixel inside the page.
	x, y := pr.X0, pr.Y0
	wr, wg, wb := Pixel("s1", x, y)
	if data[0] != wr || data[1] != wg || data[2] != wb {
		t.Fatal("page payload does not match Pixel")
	}
}

// GeneratePage and Pixel share pixelRow; pin that every byte of every page,
// ragged edge pages included, is Pixel's, and that Pixel still draws the
// slides it drew before the row helper (values taken from that version).
func TestGeneratePageMatchesPixel(t *testing.T) {
	for _, c := range []struct {
		ds   string
		x, y int64
		want [3]byte
	}{
		{"s1", 0, 0, [3]byte{227, 164, 82}},
		{"s1", 123, 456, [3]byte{16, 34, 4}},
		{"slide2", 4095, 17, [3]byte{147, 70, 159}},
		{"slide3", 2900, 4000, [3]byte{52, 135, 228}},
	} {
		if r, g, b := Pixel(c.ds, c.x, c.y); [3]byte{r, g, b} != c.want {
			t.Errorf("Pixel(%q, %d, %d) = %v, want %v", c.ds, c.x, c.y, [3]byte{r, g, b}, c.want)
		}
	}
	l := NewSlide("s1", 600, 600)
	for p := 0; p < l.NumPages(); p++ {
		data, pr := GeneratePage(l, p), l.PageRect(p)
		for y := pr.Y0; y < pr.Y1; y++ {
			for x := pr.X0; x < pr.X1; x++ {
				i := pixOffset3(pr, x, y)
				if r, g, b := Pixel("s1", x, y); data[i] != r || data[i+1] != g || data[i+2] != b {
					t.Fatalf("page %d pixel (%d, %d) = %v, Pixel says %v", p, x, y, data[i:i+3], []byte{r, g, b})
				}
			}
		}
	}
}

// Property: for random aligned windows, ComputeRaw equals the oracle.
func TestComputeRawPropertyRandomWindows(t *testing.T) {
	app, l := newApp(600, 600)
	ctx := &fakeCtx{}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		zoom := []int64{1, 2, 4, 8}[rng.Intn(4)]
		op := []Op{Subsample, Average}[rng.Intn(2)]
		x0, y0 := rng.Int63n(400), rng.Int63n(400)
		raw := geom.R(x0, y0, x0+rng.Int63n(150)+zoom, y0+rng.Int63n(150)+zoom)
		r := AlignRect(raw, zoom, l.Bounds())
		if r.Empty() {
			continue
		}
		m := NewMeta("s1", r, zoom, op)
		out := app.NewBlob(ctx, m)
		app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l})
		if !bytes.Equal(out.Data, RenderOracle(m)) {
			t.Fatalf("trial %d (%v): mismatch", trial, m)
		}
	}
}

// The VM app integrates with the simulated runtime: Compute charges CPU time
// on the virtual clock.
func TestVMOnSimRuntime(t *testing.T) {
	eng := sim.New()
	r := rt.NewSim(eng, 4)
	app, l := newApp(1470, 1470)
	var elapsed time.Duration
	r.Spawn("q", func(ctx rt.Ctx) {
		m := NewMeta("s1", geom.R(0, 0, 588, 588), 4, Subsample)
		out := app.NewBlob(ctx, m)
		app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l, syn: true})
		elapsed = ctx.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestParentMeta(t *testing.T) {
	app, _ := newApp(1000, 1000)

	// Mixed zooms 4 and 8 with a subsample majority: the parent sits at the
	// gcd zoom (4), inner-aligned to the hot region.
	samples := []query.Meta{
		NewMeta("s1", geom.R(0, 0, 64, 64), 4, Subsample),
		NewMeta("s1", geom.R(64, 64, 128, 128), 8, Subsample),
		NewMeta("s1", geom.R(0, 64, 64, 128), 4, Average),
	}
	parent, ok := app.ParentMeta(samples, geom.R(1, 1, 130, 130))
	if !ok {
		t.Fatal("ParentMeta failed")
	}
	p := parent.(Meta)
	if p.DS != "s1" || p.Zoom != 4 || p.Op != Subsample {
		t.Fatalf("parent = %+v, want s1/zoom 4/subsample", p)
	}
	// Inner alignment of (1,1)-(130,130) to zoom 4: (4,4)-(128,128).
	if want := geom.R(4, 4, 128, 128); !p.Rect.Eq(want) {
		t.Fatalf("parent rect = %v, want %v", p.Rect, want)
	}
	// Every sample must be answerable from the parent where it overlaps
	// (Equation 4: same op, zoom a multiple of the parent's).
	if ov := app.Overlap(p, samples[0]); ov == 0 {
		t.Fatalf("sample 0 cannot project from the parent (overlap %v)", ov)
	}

	// Hot region outside the slide bounds or collapsing under alignment
	// yields no parent.
	if _, ok := app.ParentMeta(samples, geom.R(1, 1, 3, 3)); ok {
		t.Fatal("degenerate hot region should not produce a parent")
	}
	// No usable samples.
	if _, ok := app.ParentMeta(nil, geom.R(0, 0, 128, 128)); ok {
		t.Fatal("empty samples should not produce a parent")
	}

	// Mismatched datasets: the first sample's slide wins, others are ignored.
	mixed := []query.Meta{
		NewMeta("s1", geom.R(0, 0, 64, 64), 4, Subsample),
		Meta{DS: "other", Rect: geom.R(0, 0, 32, 32), Zoom: 2, Op: Subsample},
	}
	parent, ok = app.ParentMeta(mixed, geom.R(0, 0, 64, 64))
	if !ok || parent.(Meta).DS != "s1" || parent.(Meta).Zoom != 4 {
		t.Fatalf("mixed-dataset parent = %v, %v", parent, ok)
	}
}
