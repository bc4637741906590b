package mqsched_test

import (
	"bytes"
	"testing"

	"mqsched"
	"mqsched/internal/experiment"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// batchDifferentialStream builds a deterministic overlapping browsing stream
// plus a tail of byte-identical queries, so any run — regardless of worker
// timing — presents the batch executor with groupable work.
func batchDifferentialStream(tableSide int64, op mqsched.Op) []mqsched.VMQuery {
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s1", Width: tableSide, Height: tableSide})
	items := load.Build(load.GenConfig{
		Users:              6,
		HotspotsPerDataset: 2,
		HotspotZipfS:       1.5,
		OutputSide:         192,
		Zooms:              []int64{2, 4},
		Op:                 op,
		Seed:               11,
	}, table, load.ArrivalConfig{Process: load.Constant, Rate: 1000, Seed: 11}, 24)
	qs := make([]mqsched.VMQuery, 0, len(items)+6)
	for _, it := range items {
		qs = append(qs, it.Meta.(mqsched.VMQuery))
	}
	hot := mqsched.NewVMQuery("s1", mqsched.R(256, 256, 1024, 1024), 4, op)
	for i := 0; i < 6; i++ {
		qs = append(qs, hot)
	}
	return qs
}

// runPolicy executes the stream to completion under one ranking strategy on
// the real (pixel-producing) runtime and returns the per-query output bytes
// in submission order.
func runPolicy(t *testing.T, policy string, qs []mqsched.VMQuery, tableSide int64) ([][]byte, mqsched.Stats) {
	t.Helper()
	table := mqsched.NewSlideTable(mqsched.Slide{Name: "s1", Width: tableSide, Height: tableSide})
	sys, err := mqsched.New(mqsched.Config{Mode: mqsched.Real, Policy: policy, Threads: 4, TimeScale: 0.0002}, table)
	if err != nil {
		t.Fatal(err)
	}
	// One user, every arrival at 0, open pacing: the whole stream is queued
	// before the first answer, in submission order.
	done, err := experiment.Replay(sys, load.FromClients([][]mqsched.VMQuery{qs}), load.Open)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]byte, len(qs))
	for _, d := range done {
		if d.Result == nil || d.Blob == nil {
			t.Errorf("%s: query %d returned no result", policy, d.Seq)
			continue
		}
		outs[d.Seq] = d.Blob.Data
	}
	if len(done) != len(qs) {
		t.Errorf("%s: %d of %d queries answered", policy, len(done), len(qs))
	}
	return outs, sys.Stats()
}

// TestBatchDifferentialByteIdentity is the correctness contract for the
// data-driven batch executor: on the same overlapping subsampling workload,
// batch-mode results must be byte-for-byte identical to query-at-a-time
// execution (CNBF) and to the rendering oracle. The batch run must also
// actually exercise grouping and fan-out, otherwise the differential proves
// nothing.
//
// The workload uses Subsample deliberately: subsample-of-subsample
// projection is bit-exact at every zoom, so byte-identity must hold on any
// execution path. Averaging is checked separately below — staged integer
// averaging carries a documented ±2-per-stage floor error (see
// vm.TestProjectCrossZoom), which the pre-existing per-query reuse path
// already incurs, so byte-identity is not a meaningful contract for it.
func TestBatchDifferentialByteIdentity(t *testing.T) {
	const side = 4096
	qs := batchDifferentialStream(side, mqsched.Subsample)

	batchOut, batchStats := runPolicy(t, "batch", qs, side)
	cnbfOut, _ := runPolicy(t, "cnbf", qs, side)
	if t.Failed() {
		t.FailNow()
	}

	for i := range qs {
		if !bytes.Equal(batchOut[i], cnbfOut[i]) {
			t.Fatalf("query %d (%v): batch output differs from query-at-a-time output (%d vs %d bytes)",
				i, qs[i], len(batchOut[i]), len(cnbfOut[i]))
		}
		if want := vm.RenderOracle(qs[i]); !bytes.Equal(batchOut[i], want) {
			t.Fatalf("query %d (%v): batch output differs from pixel oracle", i, qs[i])
		}
	}

	if batchStats.Server.BatchGroups == 0 {
		t.Fatalf("batch run never formed a multi-query group (stats %+v); the differential did not exercise fan-out", batchStats.Server)
	}
	if batchStats.Server.BatchFanouts == 0 {
		t.Fatalf("batch run formed %d groups but fanned out zero results; seed projection never fired", batchStats.Server.BatchGroups)
	}
}

// TestBatchDifferentialAverageTolerance bounds the averaging arm: each
// batch-mode result must stay within the staged-averaging floor error of
// the oracle. Direct execution averages base pixels in one stage; every
// projection hop (raw → parent seed → member, or raw → cached → member)
// adds at most one more integer floor, worth ±2 per channel per stage. The
// executor performs at most two hops beyond direct compute, so ±6 total.
func TestBatchDifferentialAverageTolerance(t *testing.T) {
	const side = 4096
	qs := batchDifferentialStream(side, mqsched.Average)

	batchOut, batchStats := runPolicy(t, "batch", qs, side)
	if t.Failed() {
		t.FailNow()
	}

	for i := range qs {
		want := vm.RenderOracle(qs[i])
		if len(batchOut[i]) != len(want) {
			t.Fatalf("query %d: output size %d, oracle %d", i, len(batchOut[i]), len(want))
		}
		for j := range want {
			if d := int(batchOut[i][j]) - int(want[j]); d < -6 || d > 6 {
				t.Fatalf("query %d byte %d: batch %d vs oracle %d exceeds staged-averaging tolerance",
					i, j, batchOut[i][j], want[j])
			}
		}
	}
	if batchStats.Server.BatchGroups == 0 {
		t.Fatal("batch run never formed a multi-query group; tolerance arm did not exercise fan-out")
	}
}
