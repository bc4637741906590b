package testapp

import (
	"bytes"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/rt"
)

type fakeCtx struct {
	computed time.Duration
	syn      bool
}

func (f *fakeCtx) Name() string            { return "t" }
func (f *fakeCtx) Now() time.Duration      { return 0 }
func (f *fakeCtx) Sleep(d time.Duration)   {}
func (f *fakeCtx) Compute(d time.Duration) { f.computed += d }
func (f *fakeCtx) Synthetic() bool         { return f.syn }

type directReader struct{ l *dataset.Layout }

func (r *directReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	return Generate(r.l, page)
}

func rig() (*App, *dataset.Layout) {
	l := dataset.New("d", 500, 500, 1, 97)
	return New(dataset.NewTable(l)), l
}

func TestMetaInterface(t *testing.T) {
	m := Meta{DS: "d", Rect: geom.R(1, 2, 3, 4)}
	if m.Dataset() != "d" || !m.Region().Eq(geom.R(1, 2, 3, 4)) || m.String() == "" {
		t.Fatal("Meta accessors wrong")
	}
}

func TestOverlapAndCmp(t *testing.T) {
	app, _ := rig()
	a := Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}
	b := Meta{DS: "d", Rect: geom.R(50, 0, 150, 100)}
	if got := app.Overlap(a, b); got != 0.5 {
		t.Fatalf("Overlap = %v", got)
	}
	if app.Overlap(a, Meta{DS: "x", Rect: b.Rect}) != 0 {
		t.Fatal("cross-dataset overlap should be 0")
	}
	if !app.Cmp(a, a) || app.Cmp(a, b) {
		t.Fatal("Cmp wrong")
	}
	if app.QOutSize(a) != 10000 {
		t.Fatalf("QOutSize = %d", app.QOutSize(a))
	}
	if got := app.Coverable(a, b); !got.Eq(geom.R(50, 0, 100, 100)) {
		t.Fatalf("Coverable = %v", got)
	}
}

func TestComputeRawMatchesPixels(t *testing.T) {
	app, l := rig()
	ctx := &fakeCtx{}
	m := Meta{DS: "d", Rect: geom.R(90, 90, 300, 210)} // straddles pages
	out := app.NewBlob(ctx, m)
	read := app.ComputeRaw(ctx, m, m.Rect, out, &directReader{l: l})
	if read == 0 || ctx.computed == 0 {
		t.Fatalf("read=%d computed=%v", read, ctx.computed)
	}
	want := make([]byte, m.Rect.Area())
	i := 0
	for y := m.Rect.Y0; y < m.Rect.Y1; y++ {
		for x := m.Rect.X0; x < m.Rect.X1; x++ {
			want[i] = Pixel("d", x, y)
			i++
		}
	}
	if !bytes.Equal(out.Data, want) {
		t.Fatal("ComputeRaw output differs from pixel function")
	}
}

func TestProjectCopiesIntersection(t *testing.T) {
	app, l := rig()
	ctx := &fakeCtx{}
	src := Meta{DS: "d", Rect: geom.R(0, 0, 200, 200)}
	srcBlob := app.NewBlob(ctx, src)
	app.ComputeRaw(ctx, src, src.Rect, srcBlob, &directReader{l: l})

	dst := Meta{DS: "d", Rect: geom.R(100, 100, 300, 300)}
	out := app.NewBlob(ctx, dst)
	covered := app.ProjectInto(ctx, srcBlob, dst, out, []geom.Rect{dst.Rect})
	if !covered.Eq(geom.R(100, 100, 200, 200)) {
		t.Fatalf("covered = %v", covered)
	}
	// Spot-check a projected pixel.
	x, y := int64(150), int64(170)
	off := (y-dst.Rect.Y0)*dst.Rect.Dx() + (x - dst.Rect.X0)
	if out.Data[off] != Pixel("d", x, y) {
		t.Fatal("projected pixel wrong")
	}
	// Disjoint projection is empty.
	far := Meta{DS: "d", Rect: geom.R(400, 400, 450, 450)}
	if got := app.ProjectInto(ctx, srcBlob, far, app.NewBlob(ctx, far), []geom.Rect{far.Rect}); !got.Empty() {
		t.Fatalf("disjoint project covered %v", got)
	}
}

// TestProjectIntoWritesOnlyInto: ProjectInto writes exactly covered ∩ into,
// with the bytes and charge of a whole-grid projection, for remainders that
// hold the intersection, cut it, miss it and are empty.
func TestProjectIntoWritesOnlyInto(t *testing.T) {
	app, l := rig()
	ctx := &fakeCtx{}
	src := Meta{DS: "d", Rect: geom.R(0, 0, 200, 200)}
	srcBlob := app.NewBlob(ctx, src)
	app.ComputeRaw(ctx, src, src.Rect, srcBlob, &directReader{l: l})
	dst := Meta{DS: "d", Rect: geom.R(100, 50, 300, 250)}
	cut := geom.NewRegion(dst.Rect)
	cut.Subtract(geom.R(120, 0, 170, 400))
	cut.Subtract(geom.R(0, 180, 400, 190))
	for _, into := range [][]geom.Rect{
		{dst.Rect},
		cut.Rects(),
		{geom.R(200, 50, 300, 250)},
		{geom.R(150, 60, 160, 70), geom.R(190, 190, 250, 250)},
		nil,
	} {
		CheckProjectInto(t, app, srcBlob, dst, into)
	}
}

func TestSyntheticBlobHasNoData(t *testing.T) {
	app, l := rig()
	ctx := &fakeCtx{syn: true}
	m := Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}
	out := app.NewBlob(ctx, m)
	if out.Data != nil {
		t.Fatal("synthetic blob should have nil data")
	}
	// ComputeRaw still charges cost with nil page data.
	read := app.ComputeRaw(ctx, m, m.Rect, out, &nilReader{l: l})
	if read == 0 || ctx.computed == 0 {
		t.Fatalf("synthetic accounting: read=%d computed=%v", read, ctx.computed)
	}
}

type nilReader struct{ l *dataset.Layout }

func (r *nilReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte { return nil }

func TestGenerateDeterministic(t *testing.T) {
	_, l := rig()
	a := Generate(l, 3)
	b := Generate(l, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("Generate not deterministic")
	}
	if int64(len(a)) != l.PageBytes(3) {
		t.Fatalf("page size %d, want %d", len(a), l.PageBytes(3))
	}
}
