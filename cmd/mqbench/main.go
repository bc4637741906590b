// Command mqbench regenerates the paper's evaluation artifacts (every table
// and figure of §5) on the simulated runtime, printing aligned text tables
// and optionally CSV files.
//
// Usage:
//
//	mqbench -experiment=fig4 -op=subsample
//	mqbench -experiment=all -clients=16 -queries=16 -csv=out/
//
// mqbench -h lists the experiment ids (the specs table below) and every
// system knob (mqsched.Config.BindFlags).
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
	"mqsched/internal/trace"
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
		expName  = flag.String("experiment", "all", "experiment id: "+strings.Join(specIDs(), ", ")+", all")
		opName   = flag.String("op", "both", "VM implementation: subsample, average, both")
		csvDir   = flag.String("csv", "", "directory to write CSV copies of each table")
		dumpWl   = flag.String("dumpworkload", "", "write the generated workload (both ops) as JSON to this path and exit")
		loadWl   = flag.String("workload", "", "replay a saved workload (JSON) through a single run instead of an experiment sweep")
		traceOut = flag.String("trace-out", "", "run one traced configuration and write its span trees as Chrome trace_event JSON to this path (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments %q", flag.Args())
	case base.Clients < 1:
		usageError("-clients %d: need at least one client", base.Clients)
	case base.QueriesPerClient < 1:
		usageError("-queries %d: need at least one query per client", base.QueriesPerClient)
	case base.Threads < 1:
		usageError("-threads %d: need at least one query thread", base.Threads)
	case base.CPUs < 1:
		usageError("-cpus %d: the simulated SMP needs a processor", base.CPUs)
	case base.Disks < 1:
		usageError("-disks %d: the farm needs a spindle", base.Disks)
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

	selected, err := selectExperiments(*expName)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	for _, spec := range selected {
		for _, op := range ops {
			if spec.singleOp && op != ops[0] {
				continue // op-independent experiments run once
			}
			cfg := base
			cfg.Op = op
			if spec.report != nil {
				rep, err := spec.report(cfg)
				if err != nil {
					fatal(err)
				}
				fmt.Println(rep)
				continue
			}
			tb, err := spec.run(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(tb.String())
			if *csvDir != "" {
				if err := writeCSV(*csvDir, spec.id, op, spec.singleOp, &tb); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

// spec is one experiment: run renders a table; report, for the one
// experiment that is not a table, renders text and is left out of "all".
type spec struct {
	id       string
	singleOp bool // experiment already covers both ops internally
	run      func(experiment.Config) (experiment.Table, error)
	report   func(experiment.Config) (string, error)
}

// specs is the experiment list: the -experiment usage and the unknown-id
// error are written from it.
var specs = []spec{
	{id: "e1", singleOp: true, run: experiment.CachingEffect},
	{id: "fig4", run: func(c experiment.Config) (experiment.Table, error) { return experiment.ResponseVsThreads(c, nil) }},
	{id: "fig5", run: func(c experiment.Config) (experiment.Table, error) { return experiment.OverlapVsMemory(c, nil) }},
	{id: "fig6", run: func(c experiment.Config) (experiment.Table, error) { return experiment.ResponseVsMemory(c, nil) }},
	{id: "fig7", run: func(c experiment.Config) (experiment.Table, error) { return experiment.BatchVsMemory(c, nil) }},
	{id: "a1", run: func(c experiment.Config) (experiment.Table, error) { return experiment.CFAlphaAblation(c, nil) }},
	{id: "a2", run: experiment.PageSpaceAblation},
	{id: "a3", run: experiment.BlockingAblation},
	{id: "a4", run: func(c experiment.Config) (experiment.Table, error) { return experiment.PrefetchAblation(c, nil) }},
	{id: "x2", run: experiment.WorkloadSensitivity},
	{id: "x3", run: func(c experiment.Config) (experiment.Table, error) { return experiment.SeedSensitivity(c, nil) }},
	{id: "x1", run: experiment.ExtensionsComparison},
	{id: "v1", singleOp: true, run: experiment.VolumeComparison},
	{id: "calibration", singleOp: true, run: experiment.Calibration},
	{id: "timeline", report: func(c experiment.Config) (string, error) { return experiment.TimelineReport(c, nil) }},
}

func specIDs() []string {
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.id
	}
	return ids
}

// selectExperiments resolves an -experiment value: one id, or "all" for
// every table.
func selectExperiments(name string) ([]spec, error) {
	var out []spec
	for _, s := range specs {
		if s.id == name || (name == "all" && s.run != nil) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s, all)", name, strings.Join(specIDs(), ", "))
	}
	return out, nil
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
// slides), generating one otherwise; closed, or a Batch config's open loop — and
// prints the headline numbers, the span-derived per-strategy percentiles, and
// the structured end-of-run metrics summary (every subsystem counter, gauge,
// and latency histogram from the unified registry). When traceOut is
// non-empty the span trees are written there as Chrome trace_event JSON.
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
			float64(m.Queries)/m.Makespan,
			float64(m.Server.ReusedOutputBytes)/mb/m.Makespan,
			float64(m.Server.ComputedOutputBytes)/mb/m.Makespan)
	}
	if d := m.Disk; d.Batches > 0 {
		fmt.Printf("disk elevator: %d batches (%.2f pages/batch), %d merged reads, max reorder %d\n",
			d.Batches, float64(d.BatchPagesSum)/float64(d.Batches), d.MergedReads, d.MaxReorder)
	}
	fmt.Println("\nspan-derived percentiles (seconds, simulated time):")
	fmt.Print(trace.FormatStrategyStats(m.Spans.StrategyStats()))
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
