// Volume: the paper's future-work application — scientific visualization of
// 3-dimensional datasets (§6) — running on the same middleware as the
// Virtual Microscope. Renders maximum-intensity projections (MIP) of slabs
// of a synthetic 3-D volume on the real runtime, demonstrates cross-query
// reuse of projection images, and writes the render to volume.png.
package main

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log"
	"os"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/vol"
)

func main() {
	// A 1024x1024x32 voxel volume (32 MB), produced on demand.
	app := vol.New()
	dims := vol.Dims{Width: 1024, Height: 1024, Depth: 32}
	layout := app.Add("ct-study", dims)
	table := dataset.NewTable(layout)
	app.Finish(table)

	// The real runtime needs the volume's page generator instead of the
	// default VM slide generator.
	sys, err := newVolumeSystem(app, table)
	if err != nil {
		log.Fatal(err)
	}

	err = sys.RunWith(func(ctx mqsched.Ctx) {
		// Full-volume MIP at zoom 2.
		q1 := vol.NewMeta("ct-study", dims, geom.R(0, 0, 1024, 1024), 0, 32, 2, vol.MIP)
		t1, err := sys.Submit(q1)
		if err != nil {
			log.Fatal(err)
		}
		r1 := t1.Wait(ctx)
		fmt.Printf("MIP zoom 2 (cold): response=%v reused=%.0f%%\n", r1.ResponseTime().Round(0), r1.ReusedFrac*100)

		// The same slab at zoom 4: fully derivable from the cached zoom-2
		// projection (max of maxes), no voxel I/O at all.
		q2 := vol.NewMeta("ct-study", dims, geom.R(0, 0, 1024, 1024), 0, 32, 4, vol.MIP)
		t2, err := sys.Submit(q2)
		if err != nil {
			log.Fatal(err)
		}
		r2 := t2.Wait(ctx)
		fmt.Printf("MIP zoom 4 (warm): response=%v reused=%.0f%% rawBytes=%d\n",
			r2.ResponseTime().Round(0), r2.ReusedFrac*100, r2.InputBytesRead)

		if err := writeGrayPNG("volume.png", r1); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote volume.png")
		// The image holds a copy of the pixels: hand the outputs' bytes back
		// to the data store (optional, see System.Release).
		sys.Release(r1)
		sys.Release(r2)
	})
	if err != nil {
		log.Fatal(err)
	}
}

// newVolumeSystem assembles a Real-mode system whose disk farm generates
// volume pages. (The default facade generator produces VM slides.)
func newVolumeSystem(app *vol.App, table *dataset.Table) (*mqsched.System, error) {
	return mqsched.NewWithGenerator(mqsched.Config{
		Mode:      mqsched.Real,
		Policy:    "cnbf",
		Threads:   4,
		App:       app,
		TimeScale: 0.001,
	}, table, app.Generator())
}

// writeGrayPNG renders a 1-byte-per-pixel projection image.
func writeGrayPNG(path string, r *mqsched.Result) error {
	m := r.Meta.(vol.Meta)
	grid := m.OutRect()
	img := image.NewGray(image.Rect(0, 0, int(grid.Dx()), int(grid.Dy())))
	for i, v := range r.Blob.Data {
		img.SetGray(i%int(grid.Dx()), i/int(grid.Dx()), color.Gray{Y: v})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return png.Encode(f, img)
}
