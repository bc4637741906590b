package experiment

import (
	"fmt"
	"sync"
	"testing"

	"mqsched"
	"mqsched/internal/geom"
	"mqsched/internal/rt"
	"mqsched/internal/vm"
)

// batchStarvationRun executes, on the deterministic simulated runtime, a
// pathological batch-mode workload: one disjoint query submitted first,
// then nHot byte-identical hot queries that mutually overlap 100%. Group
// claiming is capped at 1 so the run isolates the ranking blend — pure
// hotness order would execute every hot query before the disjoint one.
// Returns the disjoint query's completion position (1-based) and the total
// query count.
func batchStarvationRun(t *testing.T, starvation float64, nHot int) (int, int) {
	t.Helper()
	cfg := Config{
		Config: mqsched.Config{
			BatchStarvation: starvation,
			BatchMaxGroup:   1,
			Threads:         1,
			Disks:           1,
			DSBudget:        -1, // no result reuse: every hot query stays expensive
		},
		Policy:    "batch",
		Op:        vm.Average,
		SlideSide: 8192,
	}
	sys, err := cfg.assembleVM()
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		order int
		pos   = map[int]int{}
	)
	submit := func(idx int, m vm.Meta) {
		tk, err := sys.Submit(m)
		if err != nil {
			t.Errorf("submit %d: %v", idx, err)
			return
		}
		sys.Start(fmt.Sprintf("starve-wait-%d", idx), func(ctx rt.Ctx) {
			tk.Wait(ctx)
			mu.Lock()
			order++
			pos[idx] = order
			mu.Unlock()
		})
	}
	sys.Start("starve-dispatch", func(ctx rt.Ctx) {
		// The disjoint query arrives first (Seq 1) on a different dataset,
		// so its hotness is exactly zero against the entire hot stream.
		submit(0, vm.NewMeta("slide2", geom.R(4096, 4096, 6144, 6144), 8, vm.Average))
		for i := 1; i <= nHot; i++ {
			submit(i, vm.NewMeta("slide1", geom.R(0, 0, 2048, 2048), 8, vm.Average))
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("starvation run (s=%v): %v", starvation, err)
	}
	if len(pos) != nHot+1 {
		t.Fatalf("starvation run (s=%v): %d of %d queries completed", starvation, len(pos), nHot+1)
	}
	return pos[0], nHot + 1
}

// TestBatchStarvationDeadline is the anti-starvation regression for the
// batch ranking mode: the aging blend must bound how long a fully
// overlapping hot stream can defer a disjoint query, with the bound
// tightening monotonically in the starvation weight. With aging disabled
// the disjoint query is starved to the very tail — which is exactly the
// failure mode the knob exists to prevent.
func TestBatchStarvationDeadline(t *testing.T) {
	const nHot = 40
	aggressive, total := batchStarvationRun(t, 5, nHot)
	moderate, _ := batchStarvationRun(t, 1, nHot)
	gentle, _ := batchStarvationRun(t, 0.2, nHot)
	disabled, _ := batchStarvationRun(t, -1, nHot)

	if disabled < total-1 {
		t.Errorf("aging disabled: disjoint query completed at position %d of %d, want starved to the tail (>= %d)",
			disabled, total, total-1)
	}
	if !(aggressive < moderate && moderate < gentle && gentle < disabled) {
		t.Errorf("completion positions not monotone in starvation weight: s=5 -> %d, s=1 -> %d, s=0.2 -> %d, disabled -> %d",
			aggressive, moderate, gentle, disabled)
	}
	if aggressive > total/2 {
		t.Errorf("s=5: disjoint query completed at position %d of %d, want promoted into the first half", aggressive, total)
	}

	// The default knob (cfg 0 resolves to sched.DefaultBatchStarvation)
	// must also beat the disabled tail on the same stream.
	def, _ := batchStarvationRun(t, 0, nHot)
	if def > disabled {
		t.Errorf("default starvation: position %d, want <= disabled position %d", def, disabled)
	}
}
