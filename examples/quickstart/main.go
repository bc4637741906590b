// Quickstart: run the middleware on the real (wall-clock) runtime with
// actual pixel data. Submits a Virtual Microscope query, re-submits an
// overlapping one to demonstrate semantic caching, and writes the second
// output image to quickstart.png.
package main

import (
	"fmt"
	"image"
	"image/png"
	"log"
	"os"

	"mqsched"
)

func main() {
	// One synthetic 4096x4096 slide (≈50 MB at full resolution; pages are
	// produced on demand, nothing is stored on disk).
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "slide1", Width: 4096, Height: 4096})

	sys, err := mqsched.New(mqsched.Config{
		Mode:      mqsched.Real,
		Policy:    "cf", // Closest First, the paper's locality-aware strategy
		Threads:   4,
		TimeScale: 0.002, // compress modelled disk time so the demo is snappy
	}, table)
	if err != nil {
		log.Fatal(err)
	}

	err = sys.RunWith(func(ctx mqsched.Ctx) {
		// A 512x512 output at magnification 1/4 over the slide's center.
		q1 := mqsched.NewVMQuery("slide1", mqsched.R(1024, 1024, 3072, 3072), 4, mqsched.Average)
		t1, err := sys.Submit(q1)
		if err != nil {
			log.Fatal(err)
		}
		r1 := t1.Wait(ctx)
		fmt.Printf("query 1 (cold): response=%v reused=%.0f%% rawBytes=%d\n",
			r1.ResponseTime().Round(0), r1.ReusedFrac*100, r1.InputBytesRead)

		// An overlapping query at the same magnification: most of it is
		// answered by projecting the cached result.
		q2 := mqsched.NewVMQuery("slide1", mqsched.R(1536, 1536, 3584, 3584), 4, mqsched.Average)
		t2, err := sys.Submit(q2)
		if err != nil {
			log.Fatal(err)
		}
		r2 := t2.Wait(ctx)
		fmt.Printf("query 2 (warm): response=%v reused=%.0f%% rawBytes=%d\n",
			r2.ResponseTime().Round(0), r2.ReusedFrac*100, r2.InputBytesRead)

		if err := writePNG("quickstart.png", r2); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote quickstart.png")
		// The image holds a copy of the pixels: hand both outputs' bytes back
		// to the data store for later queries of their size. Optional; an
		// unreleased result is garbage-collected as usual.
		sys.Release(r1)
		sys.Release(r2)
	})
	if err != nil {
		log.Fatal(err)
	}

	st := sys.Stats()
	fmt.Printf("server: %d queries, %d projections, %.1f MB read from the farm\n",
		st.Server.Completed, st.Server.Projections, float64(st.Disk.BytesRead)/(1<<20))
}

// writePNG renders a query result (row-major RGB over its output grid).
func writePNG(path string, r *mqsched.Result) error {
	q := r.Meta.(mqsched.VMQuery)
	grid := q.OutRect()
	img := image.NewRGBA(image.Rect(0, 0, int(grid.Dx()), int(grid.Dy())))
	i := 0
	for y := 0; y < int(grid.Dy()); y++ {
		for x := 0; x < int(grid.Dx()); x++ {
			o := img.PixOffset(x, y)
			img.Pix[o] = r.Blob.Data[i]
			img.Pix[o+1] = r.Blob.Data[i+1]
			img.Pix[o+2] = r.Blob.Data[i+2]
			img.Pix[o+3] = 0xff
			i += 3
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return png.Encode(f, img)
}
