package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mqsched/internal/experiment"
	"mqsched/internal/vm"
)

// small is a workload sized for tests; SlideSide is the case's to set.
func small(side int64) experiment.Config {
	return experiment.Config{SlideSide: side, Clients: 4, QueriesPerClient: 4, Seed: 1}
}

// TestDumpWorkloadHonoursSlideSide: -slide-side 2048 -dumpworkload must
// generate against 2048² slides, not the paper's 30000².
func TestDumpWorkloadHonoursSlideSide(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.json")
	if err := dumpWorkload(path, small(2048), vm.Subsample); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Items []struct{ X0, Y0, X1, Y1 int64 }
	}
	if err := json.Unmarshal(raw, &wl); err != nil {
		t.Fatal(err)
	}
	for _, q := range wl.Items {
		if q.X0 < 0 || q.Y0 < 0 || q.X1 > 2048 || q.Y1 > 2048 {
			t.Fatalf("window (%d,%d)-(%d,%d) outside the 2048² slide", q.X0, q.Y0, q.X1, q.Y1)
		}
	}
	if n := len(wl.Items); n != 16 {
		t.Fatalf("dumped %d queries, want 16", n)
	}
}

// TestReplayRejectsWindowsOutsideSlides: a workload dumped for 30000² slides
// must not replay against 2048² ones.
func TestReplayRejectsWindowsOutsideSlides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.json")
	if err := dumpWorkload(path, small(0), vm.Subsample); err != nil {
		t.Fatal(err)
	}
	if err := replayWorkload(path, small(2048), "cnbf", vm.Subsample, ""); err == nil {
		t.Fatal("replaying a 30000² dump at -slide-side 2048 succeeded")
	}
	// The same dump replays where it was made.
	if err := replayWorkload(path, small(0), "cnbf", vm.Subsample, ""); err != nil {
		t.Fatal(err)
	}
}
