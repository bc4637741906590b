// Command mqbench regenerates the paper's evaluation artifacts (every table
// and figure of §5) on the simulated runtime, printing aligned text tables
// and optionally CSV files.
//
// Usage:
//
//	mqbench -experiment=fig4 -op=subsample
//	mqbench -experiment=all -clients=16 -queries=16 -csv=out/
//
// mqbench -h lists the experiment ids (experiment.Specs, then the timeline)
// and every system knob (mqsched.Config.BindFlags).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mqsched"
	"mqsched/internal/experiment"
	"mqsched/internal/load"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

func main() {
	// The system knobs come from the one binder; -policy only matters to the
	// single runs (-workload, -trace-out), since every sweep sets its own.
	base := experiment.Config{Config: mqsched.Config{
		Mode:          mqsched.Simulated,
		Policy:        "cnbf",
		TraceCapacity: 1 << 16,
	}}
	base.Config.BindFlags(flag.CommandLine)
	flag.IntVar(&base.Clients, "clients", 16, "number of emulated clients")
	flag.IntVar(&base.QueriesPerClient, "queries", 16, "queries per client")
	flag.Int64Var(&base.Seed, "seed", 1, "workload seed")
	flag.Int64Var(&base.SlideSide, "slide-side", 0, "slide edge in pixels (0 = the paper's 30000); small values keep -trace-out captures compact")
	var (
		expName  = flag.String("experiment", "all", "experiment id: "+strings.Join(experimentIDs(), ", ")+", all")
		opName   = flag.String("op", "both", "VM implementation: subsample, average, both")
		csvDir   = flag.String("csv", "", "directory to write CSV copies of each table")
		dumpWl   = flag.String("dumpworkload", "", "write the workload a single run of the first -op generates (subsample under both) as JSON to this path and exit")
		loadWl   = flag.String("workload", "", "replay a saved workload (JSON) through a single run of the first -op instead of an experiment sweep")
		traceOut = flag.String("trace-out", "", "run one traced configuration of the first -op and write its span trees as Chrome trace_event JSON to this path (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments %q", flag.Args())
	case base.Clients < 1:
		usageError("-clients %d: need at least one client", base.Clients)
	case base.QueriesPerClient < 1:
		usageError("-queries %d: need at least one query per client", base.QueriesPerClient)
	case *dumpWl != "" && *loadWl != "":
		usageError("-dumpworkload and -workload are mutually exclusive")
	}

	ops, err := parseOps(*opName)
	if err != nil {
		fatal(err)
	}

	if *dumpWl != "" {
		if err := dumpWorkload(*dumpWl, base, ops[0]); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *dumpWl)
		return
	}

	if *loadWl != "" || *traceOut != "" {
		if err := replayWorkload(*loadWl, base, base.Config.Policy, ops[0], *traceOut); err != nil {
			fatal(err)
		}
		return
	}

	tables, timeline, err := selectExperiments(*expName)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	var jobs []experiment.Job
	for _, spec := range tables {
		for _, op := range ops {
			if spec.Ops != nil && op != ops[0] {
				continue // the spec covers its implementations itself
			}
			cfg := base
			cfg.Op = op
			jobs = append(jobs, experiment.Job{Spec: spec, Base: cfg})
		}
	}
	tbs, err := experiment.SweepAll(jobs)
	if err != nil {
		fatal(err)
	}
	for i, jb := range jobs {
		fmt.Println(tbs[i].String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, jb.Spec.ID, jb.Base.Op, jb.Spec.Ops != nil, &tbs[i]); err != nil {
				fatal(err)
			}
		}
	}
	if timeline {
		for _, op := range ops {
			cfg := base
			cfg.Op = op
			rep, err := experiment.TimelineReport(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(rep)
		}
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

// timelineID names the one experiment that renders text rather than a
// table; it is left out of "all".
const timelineID = "timeline"

// experimentIDs lists the -experiment values: the ids of experiment.Specs,
// then the timeline.
func experimentIDs() []string {
	ids := make([]string, 0, len(experiment.Specs)+1)
	for _, s := range experiment.Specs {
		ids = append(ids, s.ID)
	}
	return append(ids, timelineID)
}

// selectExperiments resolves an -experiment value: one id, or "all" for
// every table.
func selectExperiments(name string) (tables []experiment.Spec, timeline bool, err error) {
	for _, s := range experiment.Specs {
		if s.ID == name || name == "all" {
			tables = append(tables, s)
		}
	}
	timeline = name == timelineID
	if len(tables) == 0 && !timeline {
		return nil, false, fmt.Errorf("unknown experiment %q (want %s, all)", name, strings.Join(experimentIDs(), ", "))
	}
	return tables, timeline, nil
}

func parseOps(name string) ([]vm.Op, error) {
	switch name {
	case "both":
		return []vm.Op{vm.Subsample, vm.Average}, nil
	default:
		op, err := vm.ParseOp(name)
		if err != nil {
			return nil, err
		}
		return []vm.Op{op}, nil
	}
}

func writeCSV(dir, id string, op vm.Op, singleOp bool, tb *experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := id
	if !singleOp {
		name += "_" + strings.ReplaceAll(op.String(), " ", "_")
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(tb.CSV()), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqbench:", err)
	os.Exit(1)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mqbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// dumpWorkload writes the workload an experiment would run, for inspection
// or replay.
func dumpWorkload(path string, base experiment.Config, op vm.Op) error {
	base.Op = op
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := load.WriteStream(f, base.Stream()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayWorkload runs one configuration to completion — replaying a saved
// stream when path is non-empty (every window must lie inside the run's
// slides), generating one otherwise; closed, or a Batch config's open loop —
// and prints the headline numbers, the response percentiles, on a traced run
// each strategy's mean phases, and the end-of-run metrics summary (every
// subsystem counter, gauge and latency histogram from the unified registry).
// When traceOut is non-empty the span trees are written there as Chrome JSON.
func replayWorkload(path string, base experiment.Config, policy string, op vm.Op, traceOut string) error {
	cfg := base
	cfg.Policy = policy
	cfg.Op = op
	cfg.TraceSpans = cfg.TraceCapacity > 0
	var items []load.Item
	if path == "" {
		items = cfg.Stream()
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if items, err = load.ReadStream(f, cfg.Slides()); err != nil {
			return err
		}
	}
	m, err := experiment.RunWorkload(cfg, items, cfg.Pacing(), 0)
	if err != nil {
		return err
	}
	verb := "replayed"
	if path == "" {
		verb = "ran"
	}
	fmt.Printf("%s %d queries under %s: trimmed response %.3fs, mean wait %.3fs, overlap %.3f, makespan %.1fs\n",
		verb, m.Queries, m.Policy, m.TrimmedResponse, m.MeanWait, m.AvgOverlap, m.Makespan)
	// Output-side throughput makes kernel-level wins visible in workload
	// runs, not just microbenchmarks: reused bytes came from projecting
	// cached results, computed bytes from the raw-chunk kernels.
	if m.Makespan > 0 {
		const mb = 1 << 20
		fmt.Printf("throughput: %.2f queries/s, output %.1f MB/s reused + %.1f MB/s computed\n",
			m.AchievedQPS,
			float64(m.Server.ReusedOutputBytes)/mb/m.Makespan,
			float64(m.Server.ComputedOutputBytes)/mb/m.Makespan)
	}
	if d := m.Disk; d.Batches > 0 {
		fmt.Printf("disk elevator: %d batches (%.2f pages/batch), %d merged reads, max reorder %d\n",
			d.Batches, float64(d.BatchPagesSum)/float64(d.Batches), d.MergedReads, d.MaxReorder)
	}
	fmt.Printf("\nresponse (seconds, simulated time): p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
		m.P50, m.P95, m.P99, m.MaxResponse)
	if m.Spans != nil {
		fmt.Println("mean phases from spans (seconds):")
		fmt.Printf("%-10s %7s %9s %9s %9s %9s\n", "strategy", "queries", "wait", "io", "compute", "reuse")
		for _, b := range traceviz.Breakdown(traceviz.LoadSpans("run", m.Spans.Spans(), nil)) {
			p := b.MeanPhases
			fmt.Printf("%-10s %7d %9.3f %9.3f %9.3f %9.3f\n", b.Strategy, b.Queries, p.Wait, p.IO, p.Compute, p.Reuse)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := m.Spans.WriteChromeInfo(f, mqsched.BuildInfo()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d spans (%d dropped) to %s\n", m.Spans.Len(), m.Spans.Dropped(), traceOut)
	}
	fmt.Println("\nend-of-run metrics:")
	fmt.Print(m.Registry.Summary())
	return nil
}
