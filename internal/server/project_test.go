package server

import (
	"sync/atomic"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/testapp"
)

// writeCounter is the range-scan app with a ProjectInto that counts the
// output bytes (one per pixel) each projection actually writes. It projects
// twice, into scratch outputs filled with 0x00 and with 0xFF: a byte is
// written exactly when it left either fill, since no value equals both. The
// written bytes are then copied into the real output.
type writeCounter struct {
	*testapp.App
	written atomic.Int64
}

func (a *writeCounter) ProjectInto(ctx rt.Ctx, src *query.Blob, dst query.Meta, out *query.Blob, into []geom.Rect) geom.Rect {
	if out.Data == nil {
		return a.App.ProjectInto(ctx, src, dst, out, into)
	}
	lo := &query.Blob{Meta: out.Meta, Size: out.Size, Data: make([]byte, len(out.Data))}
	hi := &query.Blob{Meta: out.Meta, Size: out.Size, Data: make([]byte, len(out.Data))}
	for i := range hi.Data {
		hi.Data[i] = 0xFF
	}
	covered := a.App.ProjectInto(ctx, src, dst, lo, into)
	a.App.ProjectInto(ctx, src, dst, hi, into)
	for i, v := range lo.Data {
		if v != 0x00 || hi.Data[i] != 0xFF {
			out.Data[i] = v
			a.written.Add(1)
		}
	}
	return covered
}

// TestProjectionWritesEachPixelOnce: a query with two overlapping cached
// candidates and a remainder to compute writes, by projection, exactly the
// area the projections gained — 37,500 pixels, where projecting each
// candidate's whole covered rect writes 52,500 (their 100×150 overlap twice)
// — and its pixels match the oracle. Every query before it holds the same
// count.
func TestProjectionWritesEachPixelOnce(t *testing.T) {
	rtm := rt.NewReal(rt.RealOptions{TimeScale: 1e-9})
	l := dataset.New("d", 600, 600, 1, 97)
	table := dataset.NewTable(l)
	app := &writeCounter{App: testapp.New(table)}
	farm := disk.NewFarm(rtm, disk.Config{Disks: 2}, testapp.Generate)
	ps := pagespace.New(rtm, table, farm, pagespace.Options{Budget: 1 << 20})
	ds := datastore.New(app, datastore.Options{Budget: 1 << 20})
	srv := New(rtm, app, sched.New(rtm, app, sched.FIFO{}), ds, ps, Options{Threads: 1})
	defer func() {
		srv.Close()
		rtm.Wait()
	}()

	for _, q := range []struct {
		rect                 geom.Rect
		projections, written int64
	}{
		{geom.R(0, 0, 200, 200), 0, 0},        // A: nothing cached
		{geom.R(100, 0, 300, 200), 1, 20_000}, // B: A's 100×200, the rest computed
		{geom.R(50, 50, 350, 250), 2, 37_500}, // C: A ∪ B is 250×150; 30,000 computed
	} {
		before, projBefore := app.written.Load(), srv.Stats().Projections
		var res *query.Result
		inProc(rtm, func(ctx rt.Ctx) {
			tk, err := srv.Submit(m(q.rect))
			if err != nil {
				t.Error(err)
				return
			}
			res = tk.Wait(ctx)
		})
		if res == nil {
			t.FailNow()
		}
		if err := verifyPixels(res); err != nil {
			t.Fatalf("%v: %v", q.rect, err)
		}
		written := app.written.Load() - before
		gained := int64(res.ReusedFrac*float64(q.rect.Area()) + 0.5)
		if projections := srv.Stats().Projections - projBefore; projections != q.projections {
			t.Errorf("%v: %d projections, want %d", q.rect, projections, q.projections)
		}
		if written != gained || written != q.written {
			t.Errorf("%v: projections wrote %d pixels and gained %d, want both %d", q.rect, written, gained, q.written)
		}
	}
}
