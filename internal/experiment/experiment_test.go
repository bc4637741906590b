package experiment

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"unicode/utf8"

	"mqsched/internal/load"
	"mqsched/internal/testapp"
	"mqsched/internal/vm"
)

// moderate is a workload large enough to exhibit the paper's qualitative
// effects while keeping `go test` fast (~100ms per run).
func moderate(op vm.Op) Config {
	return Config{Op: op, Clients: 10, QueriesPerClient: 6, Seed: 4}
}

func TestRunBasics(t *testing.T) {
	m, err := Run(moderate(vm.Subsample))
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 60 {
		t.Fatalf("Queries = %d", m.Queries)
	}
	if m.TrimmedResponse <= 0 || m.Makespan <= 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.MeanWait+m.MeanExec < m.MeanResponse-1e-9 {
		t.Fatalf("wait %v + exec %v < response %v", m.MeanWait, m.MeanExec, m.MeanResponse)
	}
	if m.Server.Completed != 60 {
		t.Fatalf("server completed %d", m.Server.Completed)
	}
	if m.Disk.Reads == 0 || m.AvgOverlap <= 0 {
		t.Fatalf("disk=%d overlap=%v", m.Disk.Reads, m.AvgOverlap)
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	if _, err := Run(Config{Policy: "zzz", Clients: 1, QueriesPerClient: 1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(moderate(vm.Average))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(moderate(vm.Average))
	if err != nil {
		t.Fatal(err)
	}
	if a.TrimmedResponse != b.TrimmedResponse || a.Makespan != b.Makespan || a.Disk.Reads != b.Disk.Reads {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// §5: caching intermediate results improves performance even for FIFO and
// SJF.
func TestCachingImprovesFIFOAndSJF(t *testing.T) {
	for _, pol := range []string{"fifo", "sjf"} {
		on := moderate(vm.Subsample)
		on.Policy = pol
		off := on
		off.DSBudget = -1
		mOn, err := Run(on)
		if err != nil {
			t.Fatal(err)
		}
		mOff, err := Run(off)
		if err != nil {
			t.Fatal(err)
		}
		if mOn.TrimmedResponse >= mOff.TrimmedResponse {
			t.Errorf("%s: caching did not help (%.2fs on vs %.2fs off)", pol, mOn.TrimmedResponse, mOff.TrimmedResponse)
		}
	}
}

// Figure 4: FIFO is discernibly worse than the reuse-aware strategies at
// low thread counts.
func TestFIFOWorstAtLowThreads(t *testing.T) {
	base := moderate(vm.Subsample)
	base.Threads = 2
	fifoCfg := base
	fifoCfg.Policy = "fifo"
	fifo, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"muf", "cf", "cnbf"} {
		cfg := base
		cfg.Policy = pol
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.TrimmedResponse >= fifo.TrimmedResponse {
			t.Errorf("%s (%.2fs) not better than FIFO (%.2fs)", pol, m.TrimmedResponse, fifo.TrimmedResponse)
		}
	}
}

// Figure 5: average overlap grows with data store memory.
func TestOverlapGrowsWithMemory(t *testing.T) {
	for _, pol := range []string{"fifo", "cf"} {
		small := moderate(vm.Subsample)
		small.Policy = pol
		small.DSBudget = 16 * MB
		big := small
		big.DSBudget = 256 * MB
		mSmall, err := Run(small)
		if err != nil {
			t.Fatal(err)
		}
		mBig, err := Run(big)
		if err != nil {
			t.Fatal(err)
		}
		if mBig.AvgOverlap <= mSmall.AvgOverlap {
			t.Errorf("%s: overlap did not grow with memory (%.3f at 16MB vs %.3f at 256MB)",
				pol, mSmall.AvgOverlap, mBig.AvgOverlap)
		}
	}
}

// Figure 7: for a batch on a small data store, CNBF beats FIFO on total
// execution time.
func TestCNBFBeatsFIFOOnBatch(t *testing.T) {
	base := moderate(vm.Subsample)
	base.Batch = true
	base.DSBudget = 32 * MB
	fifoCfg := base
	fifoCfg.Policy = "fifo"
	cnbfCfg := base
	cnbfCfg.Policy = "cnbf"
	fifo, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	cnbf, err := Run(cnbfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cnbf.Makespan >= fifo.Makespan {
		t.Errorf("CNBF batch %.1fs not faster than FIFO %.1fs", cnbf.Makespan, fifo.Makespan)
	}
}

// Calibration: the subsampling implementation is I/O-intensive, the
// averaging one roughly balanced (§5).
func TestCPUToIORatios(t *testing.T) {
	sub := moderate(vm.Subsample)
	sub.Policy = "fifo"
	sub.DSBudget = -1
	avg := sub
	avg.Op = vm.Average
	mSub, err := Run(sub)
	if err != nil {
		t.Fatal(err)
	}
	mAvg, err := Run(avg)
	if err != nil {
		t.Fatal(err)
	}
	if mSub.CPUToIORatio > 0.15 {
		t.Errorf("subsampling ratio %.3f, want <= 0.15 (paper: 0.04-0.06)", mSub.CPUToIORatio)
	}
	if mAvg.CPUToIORatio < 0.4 || mAvg.CPUToIORatio > 2.5 {
		t.Errorf("averaging ratio %.3f, want near 1", mAvg.CPUToIORatio)
	}
	if mAvg.CPUToIORatio < 5*mSub.CPUToIORatio {
		t.Errorf("averaging (%.3f) should be far more CPU-heavy than subsampling (%.3f)",
			mAvg.CPUToIORatio, mSub.CPUToIORatio)
	}
}

// The PS dedup ablation must strictly reduce disk reads.
func TestPSDedupReducesReads(t *testing.T) {
	on := moderate(vm.Subsample)
	on.Policy = "fifo"
	off := on
	off.DisablePSDedup = true
	mOn, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	mOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if mOn.Disk.Reads > mOff.Disk.Reads {
		t.Errorf("dedup increased reads: %d vs %d", mOn.Disk.Reads, mOff.Disk.Reads)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("longer", 42)
	s := tb.String()
	for _, want := range []string{"== T ==", "a", "longer", "1.500", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") || !strings.Contains(csv, "x,1.500") {
		t.Errorf("csv output wrong:\n%s", csv)
	}
	// CSV escaping.
	tb2 := Table{Header: []string{`he"ader`, "with,comma"}}
	tb2.AddRow("v", "w")
	if !strings.Contains(tb2.CSV(), `"he""ader","with,comma"`) {
		t.Errorf("csv escaping wrong: %s", tb2.CSV())
	}
}

// narrowed is the spec id with its axis cut to values, so it runs at tiny
// scale.
func narrowed(t *testing.T, id string, values ...any) Spec {
	s := specByID(t, id)
	if values != nil {
		s.Values = values
	}
	return s
}

// The paper's sweeps run end-to-end at tiny scale.
func TestSweepsRun(t *testing.T) {
	base := Config{Op: vm.Subsample, Clients: 4, QueriesPerClient: 2, Seed: 9}
	for _, s := range []Spec{
		narrowed(t, "e1"),
		narrowed(t, "fig4", 1, 2),
		narrowed(t, "fig5", 32),
		narrowed(t, "fig6", 32),
		narrowed(t, "fig7", 32),
		narrowed(t, "a1", 0.2),
		narrowed(t, "a2"),
		narrowed(t, "a3"),
		narrowed(t, "calibration"),
	} {
		tb, err := Sweep(s, base)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if len(tb.Rows) == 0 || tb.Title == "" {
			t.Fatalf("%s: empty table", s.ID)
		}
	}
}

// TestSweepAnyWorkerCount: Sweep keeps each cell's result by the cell's
// index, so the table is the same whether one worker runs the cells in turn
// or several run them at once, and a failing sweep reports its first failing
// cell in cell order, not the first to fail.
func TestSweepAnyWorkerCount(t *testing.T) {
	base := Config{Op: vm.Subsample, Clients: 4, QueriesPerClient: 2, Seed: 9}
	s := narrowed(t, "x1")
	var tables []string
	for _, procs := range []int{1, 4} {
		testapp.SetGOMAXPROCS(t, procs)
		tb, err := Sweep(s, base)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		tables = append(tables, tb.String())
	}
	if tables[0] != tables[1] {
		t.Fatalf("x1 on one worker:\n%s\non four:\n%s", tables[0], tables[1])
	}

	s.Policies = []string{"fifo", "nope-a", "cf", "nope-b"}
	_, err := Sweep(s, base)
	if err == nil || !strings.HasPrefix(err.Error(), "x1/subsample/nope-a:") {
		t.Fatalf("err = %v, want the first failing cell, x1/subsample/nope-a", err)
	}
}

// TestSweepAllMatchesSweeps: the cells of several jobs share one pool, and
// each job still comes back as the table its own Sweep lays out, in job
// order, whatever the worker count; a failure is the first failing cell of
// the first failing job.
func TestSweepAllMatchesSweeps(t *testing.T) {
	base := Config{Op: vm.Subsample, Clients: 4, QueriesPerClient: 2, Seed: 9}
	avg := base
	avg.Op = vm.Average
	jobs := []Job{{narrowed(t, "fig4", 1, 2), base}, {narrowed(t, "e1"), base}, {narrowed(t, "fig4", 1, 2), avg}}
	var want []string
	for _, jb := range jobs {
		tb, err := Sweep(jb.Spec, jb.Base)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tb.String())
	}
	for _, procs := range []int{1, 4} {
		testapp.SetGOMAXPROCS(t, procs)
		tbs, err := SweepAll(jobs)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for j := range jobs {
			if got := tbs[j].String(); got != want[j] {
				t.Fatalf("GOMAXPROCS=%d, job %d:\n%s\nits own Sweep:\n%s", procs, j, got, want[j])
			}
		}
	}

	bad := narrowed(t, "x1")
	bad.Policies = []string{"fifo", "nope-a"}
	worse := narrowed(t, "e1")
	worse.Policies = []string{"nope-b"}
	if _, err := SweepAll([]Job{jobs[0], {bad, base}, {worse, base}}); err == nil || !strings.HasPrefix(err.Error(), "x1/subsample/nope-a:") {
		t.Fatalf("err = %v, want the first failing cell of the first failing job, x1/subsample/nope-a", err)
	}
}

func TestExtensionsAndStudiesRun(t *testing.T) {
	base := Config{Op: vm.Subsample, Clients: 4, QueriesPerClient: 2, Seed: 9}
	for _, c := range []struct {
		s    Spec
		rows int
	}{
		{narrowed(t, "x2"), 6},
		{narrowed(t, "x3", 1, 2), 6},
		{narrowed(t, "a4", 0, 2), 2},
		{narrowed(t, "v1"), 6},
	} {
		if tb, err := Sweep(c.s, base); err != nil || len(tb.Rows) != c.rows {
			t.Fatalf("%s: %v rows=%d, want %d", c.s.ID, err, len(tb.Rows), c.rows)
		}
	}
	// The timeline is drawn from the run's spans: three full-width rows per
	// thread count and a ring large enough that none was dropped.
	rep, err := TimelineReport(base)
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	for _, row := range []string{"disk util", "executing", "waiting"} {
		if n := strings.Count(rep, "\n"+row); n != 3 {
			t.Fatalf("timeline row %q appears %d times, want 3:\n%s", row, n, rep)
		}
		_, after, _ := strings.Cut(rep, "\n"+row)
		line, _, _ := strings.Cut(after, "\n")
		if bars, _, _ := strings.Cut(strings.TrimSpace(line), " "); utf8.RuneCountInString(bars) != timelineColumns {
			t.Fatalf("timeline row %q malformed:\n%s", row, rep)
		}
	}
	if strings.Contains(rep, "dropped") || !strings.Contains(rep, "threads=4  makespan=") {
		t.Fatalf("timeline:\n%s", rep)
	}
	// Extension policies run end to end.
	for _, pol := range []string{"combined", "ra"} {
		cfg := base
		cfg.Policy = pol
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

func TestSparkline(t *testing.T) {
	// One bar per value, from zero to the series' own maximum.
	if got := sparkline([]float64{0, 1, 2, 4, 8}); got != "▁▂▃▅█" {
		t.Fatalf("sparkline = %q", got)
	}
	// A flat series draws full bars, an all-zero one empty bars, none nothing.
	if got := sparkline([]float64{3, 3}); got != "██" {
		t.Fatalf("flat = %q", got)
	}
	if got := sparkline([]float64{0, 0}); got != "▁▁" {
		t.Fatalf("zeros = %q", got)
	}
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty = %q", got)
	}
}

// TestSpecsGolden pins every table mqbench prints, at a tiny workload, to
// testdata/specs.golden: each sweep for both VM implementations (once for the
// sweeps that cover both themselves), in mqbench's order, then the timeline
// report for both. GOLDEN_PRINT=1 rewrites the file instead of comparing.
func TestSpecsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("some 500 small simulated runs")
	}
	const path = "testdata/specs.golden"
	base := Config{Clients: 4, QueriesPerClient: 2, Seed: 9}
	ops := []vm.Op{vm.Subsample, vm.Average}
	var b strings.Builder
	for _, s := range Specs {
		for _, op := range ops {
			if s.Ops != nil && op != ops[0] {
				continue
			}
			cfg := base
			cfg.Op = op
			tb, err := Sweep(s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.ID, op, err)
			}
			// String pads each cell to its column, so a row longer than the
			// header would index past the widths.
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Fatalf("%s/%s: row %q has %d cells, header %d", s.ID, op, row, len(row), len(tb.Header))
				}
			}
			fmt.Fprintln(&b, tb.String())
		}
	}
	for _, op := range ops {
		cfg := base
		cfg.Op = op
		rep, err := TimelineReport(cfg)
		if err != nil {
			t.Fatalf("timeline/%s: %v", op, err)
		}
		// The curves are drawn from the run's spans: the ring must hold them all.
		if strings.Contains(rep, "dropped") {
			t.Fatalf("timeline/%s dropped spans:\n%s", op, rep)
		}
		fmt.Fprintln(&b, rep)
	}
	got := b.String()
	if printing() {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden %d", path, len(gl), len(wl))
	}
}

// Every policy (originals and extensions) completes the same workload with
// full accounting and is individually deterministic.
func TestAllPoliciesCompleteAndDeterministic(t *testing.T) {
	pols := append(append([]string{}, Policies...), "combined", "ra")
	for _, pol := range pols {
		cfg := Config{Op: vm.Subsample, Clients: 6, QueriesPerClient: 3, Seed: 8, Policy: pol}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if a.Queries != 18 || a.Server.Completed != 18 {
			t.Fatalf("%s: %d queries, %d completed", pol, a.Queries, a.Server.Completed)
		}
		if a.AvgOverlap < 0 || a.AvgOverlap > 1 {
			t.Fatalf("%s: overlap %v", pol, a.AvgOverlap)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if a.TrimmedResponse != b.TrimmedResponse || a.Disk.Reads != b.Disk.Reads {
			t.Fatalf("%s: non-deterministic (%v vs %v)", pol, a.TrimmedResponse, b.TrimmedResponse)
		}
	}
}

func TestRunWorkloadExplicit(t *testing.T) {
	for _, batch := range []bool{false, true} {
		cfg := Config{Op: vm.Subsample, Clients: 2, QueriesPerClient: 2, Seed: 5, Batch: batch}
		// Replaying the exact workload Run would generate — built by the
		// generator directly, and again after a trip through the stream file,
		// as mqbench -dumpworkload / -workload do — must give identical
		// metrics, interactive or batch.
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stream := load.Clients(load.GenConfig{Pattern: load.Browse, Users: 2, Queries: 2, Op: vm.Subsample, Seed: 5}, cfg.Slides())
		var file bytes.Buffer
		if err := load.WriteStream(&file, stream); err != nil {
			t.Fatal(err)
		}
		saved, err := load.ReadStream(&file, cfg.Slides())
		if err != nil {
			t.Fatal(err)
		}
		for _, items := range [][]load.Item{stream, saved} {
			b, err := RunWorkload(cfg, items, cfg.Pacing(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.TrimmedResponse != b.TrimmedResponse || a.MeanWait != b.MeanWait || a.AvgOverlap != b.AvgOverlap ||
				a.Makespan != b.Makespan || a.Disk.Reads != b.Disk.Reads {
				t.Fatalf("batch=%v: replay differs: %v vs %v", batch, a.TrimmedResponse, b.TrimmedResponse)
			}
		}
	}
}
