package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"mqsched/internal/geom"
)

// affineKey is the ring key of one query: the dataset plus the coarse
// spatial cell its window's center falls in. Cells are cellSize×cellSize
// tiles of the base-resolution plane, so consecutive session steps
// (half-window pans, zoom ladder moves around a hotspot) usually stay in one
// cell and route to one backend, while one dataset's hotspots still spread
// across the cluster. A cell at least as large as the slide keys every
// window of a dataset alike: dataset-hash routing, under which the Zipf-hot
// dataset's node saturates and its spill overflow scatters sessions
// (BenchmarkClusterSweep's dataset arm).
func affineKey(cellSize int64, ds string, w geom.Rect) string {
	cx := geom.FloorDiv((w.X0+w.X1)/2, cellSize)
	cy := geom.FloorDiv((w.Y0+w.Y1)/2, cellSize)
	return fmt.Sprintf("%s\x00%d,%d", ds, cx, cy)
}

// ring is a consistent-hash ring over backend indices: each backend owns
// `replicas` pseudo-random points on the uint64 circle, and a key belongs to
// the first point at or clockwise of its hash. Consistency is the point:
// adding or removing one backend only remaps the keys adjacent to its
// points, so a resize or mark-down leaves most sessions on the node that
// already holds their cached state.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	idx  int
}

func newRing(n, replicas int) *ring {
	r := &ring{points: make([]ringPoint, 0, n*replicas)}
	for i := 0; i < n; i++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%d#%d", i, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// owner returns the backend owning key, skipping backends alive() rejects.
// ok is false when alive rejects every backend.
func (r *ring) owner(key string, alive func(int) bool) (idx int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for off := 0; off < len(r.points); off++ {
		p := r.points[(start+off)%len(r.points)]
		if alive(p.idx) {
			return p.idx, true
		}
	}
	return 0, false
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
