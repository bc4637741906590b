package vol

import (
	"math/rand"
	"testing"

	"mqsched/internal/geom"
)

// BenchmarkVolKernels measures the row-vectorized voxel kernels against the
// scalar references on identical inputs, mirroring vm's BenchmarkKernels.
// Voxels are one byte, so MB/s is input voxels per second.
// Speedups are logged and floored by the rule stated there.
func BenchmarkVolKernels(b *testing.B) {
	const (
		accumFloor = 1.0 // ten 1x readings: 1.69–3.37
		mipFloor   = 1.0 // 1.66–2.17
		meanzFloor = 1.5 // 2.23–3.70
	)
	rng := rand.New(rand.NewSource(11))
	bench := func(name string, bytesPerOp int64, floor float64, ref, opt func()) {
		measure := func(fn func(), secPerOp *float64) func(b *testing.B) {
			return func(b *testing.B) {
				b.SetBytes(bytesPerOp)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn()
				}
				*secPerOp = b.Elapsed().Seconds() / float64(b.N)
			}
		}
		var refSec, optSec float64
		b.Run(name+"/ref", measure(ref, &refSec))
		b.Run(name+"/opt", measure(opt, &optSec))
		if refSec == 0 || optSec == 0 {
			return // a -bench filter left an arm out
		}
		x := refSec / optSec
		if x < floor {
			b.Fatalf("%s: opt %.2fx ref, below its floor of %.2f", name, x, floor)
		}
		b.Logf("%s: opt %.2fx ref (floor %.2f)", name, x, floor)
	}

	const side = 1024
	pageRect := geom.R(0, 0, side, side)
	page := randBytes(rng, pageRect.Area())
	inBytes := pageRect.Area()

	// Accumulation of one full page into a 4x-coarser grid, both reductions
	// share the accumulate kernel; finish resolves each op.
	{
		zoom := int64(4)
		grid := geom.R(0, 0, side/zoom, side/zoom)
		m := Meta{DS: "v1", Window: pageRect, Zoom: zoom, Op: MIP, Z0: 0, Z1: 1, SliceH: 1 << 16}
		dst := make([]byte, m.OutRect().Area())
		refAcc := newProjAccumRef(grid, m)
		optAcc := newProjAccumRef(grid, m) // unpooled: measure the kernels, not the pool
		bench("accum/zoom4", inBytes, accumFloor,
			func() { refAcc.addRef(page, pageRect, pageRect, 0); refAcc.finishRef(dst, m) },
			func() { optAcc.add(page, pageRect, pageRect, 0); optAcc.finish(dst, m) })
	}

	// Projection of a cached result onto a 4x coarser query, per op.
	for _, c := range []struct {
		op    Op
		floor float64
	}{{MIP, mipFloor}, {MeanZ, meanzFloor}} {
		dstOut := geom.R(0, 0, side/4, side/4)
		srcOut := dstOut.Mul(4)
		srcData := randBytes(rng, srcOut.Area())
		dst := make([]byte, dstOut.Area())
		bench("project/"+c.op.String()+"/k4", srcOut.Area(), c.floor,
			func() { projectPixelsRef(srcData, srcOut, dst, dstOut, dstOut, 4, c.op) },
			func() { projectPixels(srcData, srcOut, dst, dstOut, dstOut, 4, c.op) })
	}

}
