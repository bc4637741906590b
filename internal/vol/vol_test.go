package vol

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/sim"
	"mqsched/internal/testapp"
)

// fakeCtx is a minimal rt.Ctx that records charged compute.
type fakeCtx struct {
	computed time.Duration
	syn      bool
}

func (f *fakeCtx) charged() time.Duration { return f.computed }

func (f *fakeCtx) Name() string            { return "t" }
func (f *fakeCtx) Now() time.Duration      { return 0 }
func (f *fakeCtx) Sleep(d time.Duration)   {}
func (f *fakeCtx) Compute(d time.Duration) { f.computed += d }
func (f *fakeCtx) Synthetic() bool         { return f.syn }

type directReader struct {
	l   *dataset.Layout
	gen func(*dataset.Layout, int) []byte
}

func (r *directReader) ReadPage(ctx rt.Ctx, ds string, page int) []byte {
	return r.gen(r.l, page)
}

func rig() (*App, *dataset.Layout, Dims) {
	app := New()
	dims := Dims{Width: 600, Height: 400, Depth: 8}
	l := app.Add("v1", dims)
	app.Finish(dataset.NewTable(l))
	return app, l, dims
}

func TestNewMetaValidation(t *testing.T) {
	_, _, dims := rig()
	NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 4, 2, MIP) // ok
	bad := []func(){
		func() { NewMeta("v1", dims, geom.R(0, 0, 255, 256), 0, 4, 2, MIP) },  // misaligned
		func() { NewMeta("v1", dims, geom.R(0, 0, 256, 256), 4, 4, 2, MIP) },  // empty slab
		func() { NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 99, 2, MIP) }, // slab too deep
		func() { NewMeta("v1", dims, geom.R(0, 0, 2560, 256), 0, 4, 2, MIP) }, // window outside
		func() { NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 4, 0, MIP) },  // zoom 0
		func() { NewMeta("v1", dims, geom.Rect{}, 0, 4, 1, MIP) },             // empty window
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRegionEmbedsSlab(t *testing.T) {
	_, _, dims := rig()
	a := NewMeta("v1", dims, geom.R(0, 0, 100, 100), 0, 2, 1, MIP)
	b := NewMeta("v1", dims, geom.R(0, 0, 100, 100), 6, 8, 1, MIP)
	if a.Region().Overlaps(b.Region()) {
		t.Fatalf("disjoint slabs should not overlap in stacked space: %v vs %v", a.Region(), b.Region())
	}
	c := NewMeta("v1", dims, geom.R(50, 50, 150, 150), 0, 2, 1, MIP)
	if !a.Region().Overlaps(c.Region()) {
		t.Fatal("same-slab overlapping windows must intersect in stacked space")
	}
}

func TestOverlapRules(t *testing.T) {
	app, _, dims := rig()
	base := NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 4, 2, MIP)
	// Same slab, half window: 0.5.
	half := NewMeta("v1", dims, geom.R(128, 0, 384, 256), 0, 4, 2, MIP)
	if got := app.Overlap(base, half); got != 0.5 {
		t.Fatalf("overlap = %v", got)
	}
	// Coarser query: factor 1/2.
	coarse := NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 4, 4, MIP)
	if got := app.Overlap(base, coarse); got != 0.5 {
		t.Fatalf("cross-zoom overlap = %v", got)
	}
	// Different slab: 0 (projections cannot be re-sliced).
	slab := NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 6, 2, MIP)
	if got := app.Overlap(base, slab); got != 0 {
		t.Fatalf("cross-slab overlap = %v", got)
	}
	// Different op: 0.
	mean := NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 4, 2, MeanZ)
	if got := app.Overlap(base, mean); got != 0 {
		t.Fatalf("cross-op overlap = %v", got)
	}
	if !app.Cmp(base, base) || app.Cmp(base, half) {
		t.Fatal("Cmp wrong")
	}
}

func TestQSizes(t *testing.T) {
	app, l, dims := rig()
	m := NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 3, 2, MIP)
	if got := app.QOutSize(m); got != 128*128 {
		t.Fatalf("QOutSize = %d", got)
	}
	// Input: the window's pages in each of 3 slices.
	var want int64
	for z := 0; z < 3; z++ {
		want += l.InputBytes(geom.R(0, int64(z)*400, 256, int64(z)*400+256))
	}
	if got := app.QInSize(m); got != want {
		t.Fatalf("QInSize = %d, want %d", got, want)
	}
	if app.QCPUCost(m) <= 0 {
		t.Fatal("QCPUCost must be positive")
	}
}

func TestComputeRawMatchesOracle(t *testing.T) {
	app, l, dims := rig()
	ctx := &fakeCtx{}
	gen := app.Generator()
	for _, op := range []Op{MIP, MeanZ} {
		for _, zoom := range []int64{1, 2, 4} {
			w := geom.R(96, 96, 96+zoom*64, 96+zoom*64).Intersect(geom.R(0, 0, 600, 400))
			w = geom.R(w.X0/zoom*zoom, w.Y0/zoom*zoom, w.X1/zoom*zoom, w.Y1/zoom*zoom)
			m := NewMeta("v1", dims, w, 1, 5, zoom, op)
			out := app.NewBlob(ctx, m)
			read := app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l, gen: gen})
			if read == 0 {
				t.Fatalf("%v zoom %d: no bytes read", op, zoom)
			}
			want := RenderOracle(m, dims)
			if !bytes.Equal(out.Data, want) {
				t.Fatalf("%v zoom %d: output differs from oracle", op, zoom)
			}
		}
	}
}

func TestProjectCrossZoom(t *testing.T) {
	app, l, dims := rig()
	ctx := &fakeCtx{}
	gen := app.Generator()
	src := NewMeta("v1", dims, geom.R(0, 0, 512, 384), 0, 4, 2, MIP)
	srcBlob := app.NewBlob(ctx, src)
	app.ComputeRaw(ctx, src, src.OutRect(), srcBlob, &directReader{l: l, gen: gen})

	dst := NewMeta("v1", dims, geom.R(0, 0, 512, 384), 0, 4, 4, MIP)
	out := app.NewBlob(ctx, dst)
	covered := app.ProjectInto(ctx, srcBlob, dst, out, []geom.Rect{dst.OutRect()})
	if !covered.Eq(dst.OutRect()) {
		t.Fatalf("covered = %v, want %v", covered, dst.OutRect())
	}
	// max-of-max is exact.
	want := RenderOracle(dst, dims)
	if !bytes.Equal(out.Data, want) {
		t.Fatal("MIP cross-zoom projection differs from oracle")
	}
	// Cross-slab projection is rejected.
	other := NewMeta("v1", dims, geom.R(0, 0, 512, 384), 2, 6, 4, MIP)
	if got := app.ProjectInto(ctx, srcBlob, other, app.NewBlob(ctx, other), []geom.Rect{other.OutRect()}); !got.Empty() {
		t.Fatalf("cross-slab projection covered %v", got)
	}
}

// TestProjectIntoWritesOnlyInto: over both operators, zooms 1 and 2 apart
// and remainders of one to several rects, ProjectInto writes exactly
// covered ∩ into, with the bytes and charge of a whole-grid projection.
func TestProjectIntoWritesOnlyInto(t *testing.T) {
	app, l, dims := rig()
	ctx := &fakeCtx{}
	gen := app.Generator()
	for _, op := range []Op{MIP, MeanZ} {
		for _, zooms := range [][2]int64{{2, 2}, {2, 4}, {1, 2}} {
			src := NewMeta("v1", dims, geom.R(64, 32, 448, 320), 0, 4, zooms[0], op)
			srcBlob := app.NewBlob(ctx, src)
			app.ComputeRaw(ctx, src, src.OutRect(), srcBlob, &directReader{l: l, gen: gen})
			dst := NewMeta("v1", dims, geom.R(0, 0, 512, 384), 0, 4, zooms[1], op)
			grid := dst.OutRect()
			rem := geom.NewRegion(grid)
			for _, cut := range []geom.Rect{
				{X0: grid.X0, Y0: grid.Y0, X1: grid.X0 + grid.Dx()/3, Y1: grid.Y1},
				{X0: grid.X0 + grid.Dx()/2, Y0: grid.Y0 + grid.Dy()/4, X1: grid.X1 - 3, Y1: grid.Y0 + grid.Dy()/2},
			} {
				testapp.CheckProjectInto(t, app, srcBlob, dst, rem.Rects())
				rem.Subtract(cut)
			}
			testapp.CheckProjectInto(t, app, srcBlob, dst, rem.Rects())
			testapp.CheckProjectInto(t, app, srcBlob, dst, nil)
		}
	}
}

func TestSyntheticAccounting(t *testing.T) {
	app, l, dims := rig()
	ctx := &fakeCtx{syn: true}
	m := NewMeta("v1", dims, geom.R(0, 0, 256, 256), 0, 8, 2, MIP)
	out := app.NewBlob(ctx, m)
	if out.Data != nil {
		t.Fatal("synthetic blob should have nil data")
	}
	nilGen := func(*dataset.Layout, int) []byte { return nil }
	app.ComputeRaw(ctx, m, m.OutRect(), out, &directReader{l: l, gen: nilGen})
	// 256*256 voxels × 8 slices at PerInVoxel minimum.
	if want := time.Duration(256*256*8) * app.Costs.PerInVoxel; ctx.charged() < want {
		t.Fatalf("charged %v, want >= %v", ctx.charged(), want)
	}
}

func TestVoxelDeterministic(t *testing.T) {
	dims := Dims{Width: 100, Height: 100, Depth: 10}
	if Voxel("a", dims, 5, 6, 7) != Voxel("a", dims, 5, 6, 7) {
		t.Fatal("Voxel not deterministic")
	}
}

func TestOpString(t *testing.T) {
	if MIP.String() != "mip" || MeanZ.String() != "meanz" || Op(7).String() == "" {
		t.Fatal("Op strings wrong")
	}
}

// Full-stack test: the volume app runs on the complete middleware (sim
// runtime) with reuse across clients.
func TestVolumeOnMiddleware(t *testing.T) {
	app, l, dims := rig()
	eng := sim.New()
	rtm := rt.NewSim(eng, 8)
	farm := disk.NewFarm(rtm, disk.Config{}, nil)
	ps := pagespace.New(rtm, app.Table, farm, pagespace.Options{Budget: 8 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 4 << 20})
	graph := sched.New(rtm, app, sched.CNBF{})
	srv := server.New(rtm, app, graph, ds, ps, server.Options{Threads: 2})
	_ = l

	var results []*query.Result
	rtm.Spawn("client", func(ctx rt.Ctx) {
		slab := NewMeta("v1", dims, geom.R(0, 0, 512, 384), 0, 8, 2, MIP)
		for i := 0; i < 2; i++ {
			tk, err := srv.Submit(slab)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			results = append(results, tk.Wait(ctx))
		}
		srv.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].ReusedFrac != 1 {
		t.Fatalf("second slab query reuse = %v", results[1].ReusedFrac)
	}
	if results[0].InputBytesRead == 0 {
		t.Fatal("first query read nothing")
	}
	if fmt.Sprint(results[0].Meta) == "" {
		t.Error("empty meta string")
	}
}
