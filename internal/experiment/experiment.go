// Package experiment runs the full system on the simulated runtime and
// reproduces the paper's evaluation (§5): one Run per configuration, plus a
// sweep function per table/figure. Every run assembles its stack through
// mqsched.New. See DESIGN.md §5 for the experiment index and EXPERIMENTS.md
// for recorded results.
package experiment

import (
	"fmt"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/driver"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/stats"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// Config is one simulated run of the full system: what the run varies about
// its workload and the policy under test, plus the system's own knobs, which
// are declared once, in the embedded mqsched.Config (Threads, DSBudget,
// CFAlpha, ... are promoted from it). Two of its fields are not the run's to
// set: Mode is always Simulated, and its Policy and App are overwritten from
// the fields below.
type Config struct {
	mqsched.Config

	// Policy is the ranking strategy under test: fifo, muf, ff, cf, cnbf,
	// sjf, batch, combined, autotune or ra (default fifo).
	Policy string
	// Op selects the VM implementation: Subsample (I/O-intensive) or
	// Average (balanced).
	Op vm.Op
	// Seed drives workload generation.
	Seed int64
	// Clients / QueriesPerClient scale the workload (defaults 16 × 16, the
	// paper's 256 queries).
	Clients          int
	QueriesPerClient int
	// Batch submits all queries at once (Figure 7); otherwise clients are
	// interactive (Figures 4-6).
	Batch bool
	// Mode selects the client browsing pattern (experiment X2; default the
	// paper's hotspot browse).
	Mode driver.Mode
	// SlideSide overrides the dataset edge (default 30000 pixels).
	SlideSide int64
	// PrefetchDepth enables chunk read-ahead in the VM application
	// (ablation A4; 0 = the paper's synchronous reads).
	PrefetchDepth int
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "fifo"
	}
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.QueriesPerClient == 0 {
		c.QueriesPerClient = 16
	}
	if c.SlideSide == 0 {
		c.SlideSide = 30000
	}
	return c
}

// Slides builds the dataset table the run is over: the paper's three slides
// at SlideSide. It is the one table the system, the workload generator and
// any replayed workload's validation (driver.LoadWorkload) share.
func (c Config) Slides() *dataset.Table {
	return driver.PaperSlides(c.withDefaults().SlideSide)
}

// assemble builds the run's simulated system for app over table through the
// facade; c must already carry its defaults.
func (c Config) assemble(table *dataset.Table, app query.App) (*mqsched.System, error) {
	sc := c.Config
	sc.Mode = mqsched.Simulated
	sc.Policy = c.Policy
	sc.App = app
	return mqsched.New(sc, table)
}

// assembleVM is assemble for the Virtual Microscope over the run's slides.
func (c Config) assembleVM() (*mqsched.System, error) {
	table := c.Slides()
	app := vm.New(table)
	app.PrefetchDepth = c.PrefetchDepth
	return c.assemble(table, app)
}

// Metrics summarize one run.
type Metrics struct {
	Config Config
	Policy string

	// Response-time statistics in seconds (the paper's Figures 4 and 6 use
	// the 95%-trimmed mean of waiting + execution time).
	TrimmedResponse float64
	MeanResponse    float64
	MeanWait        float64
	MeanExec        float64

	// AvgOverlap is the mean per-query reused fraction (Figure 5).
	AvgOverlap float64
	// Makespan is the total execution time of the workload in seconds
	// (Figure 7 for batches).
	Makespan float64

	// Resource accounting.
	CPUBusySeconds  float64
	DiskBusySeconds float64
	CPUToIORatio    float64
	DiskUtilization float64

	// Subsystem counters.
	Server    server.Stats
	Disk      disk.Stats
	PageSpace pagespace.Stats
	DataStore datastore.Stats
	Graph     sched.GraphStats

	Queries int

	// Registry is the end-of-run snapshot of the system's metrics registry.
	Registry *metrics.Snapshot

	// Spans is the run's span tracer when Config.TraceSpans was set (export
	// with WriteChrome, summarize with StrategyStats).
	Spans *trace.Tracer
}

// Run executes one configuration to completion on the simulated runtime,
// generating the workload from the configuration.
func Run(cfg Config) (Metrics, error) {
	return RunWorkload(cfg, nil)
}

// RunWorkload is Run with an explicit workload (per-client query lists,
// e.g. loaded with driver.LoadWorkload against cfg.Slides()); pass nil to
// generate from cfg.
func RunWorkload(cfg Config, queries [][]vm.Meta) (Metrics, error) {
	cfg = cfg.withDefaults()
	sys, err := cfg.assembleVM()
	if err != nil {
		return Metrics{}, err
	}
	if queries == nil {
		queries = driver.Generate(driver.WorkloadConfig{
			Clients:          cfg.Clients,
			QueriesPerClient: cfg.QueriesPerClient,
			Op:               cfg.Op,
			Seed:             cfg.Seed,
			Mode:             cfg.Mode,
		}, sys.Datasets())
	}
	return runClients(cfg, sys, queries, 0)
}

// runClients drives the emulated clients over sys to completion and
// summarizes the run.
func runClients[M query.Meta](cfg Config, sys *mqsched.System, queries [][]M, think time.Duration) (Metrics, error) {
	rtm := sys.Runtime()
	col := driver.Launch(sys, queries, driver.LaunchOpts{Batch: cfg.Batch, ThinkTime: think})
	if err := sys.Run(); err != nil {
		return Metrics{}, fmt.Errorf("experiment %v: %w", cfg.Policy, err)
	}
	if errs := col.Errs(); len(errs) > 0 {
		return Metrics{}, fmt.Errorf("experiment: %d submit errors, first: %v", len(errs), errs[0])
	}

	results := col.Results()
	resp := make([]float64, 0, len(results))
	wait := make([]float64, 0, len(results))
	exec := make([]float64, 0, len(results))
	var overlapSum float64
	for _, r := range results {
		resp = append(resp, r.ResponseTime().Seconds())
		wait = append(wait, r.WaitTime().Seconds())
		exec = append(exec, r.ExecTime().Seconds())
		overlapSum += r.ReusedFrac
	}

	st := sys.Stats()
	cpuUtil, diskUtil := sys.Utilization()
	cpuBusy := cpuUtil * float64(sys.Config().CPUs) * rtm.Now().Seconds()
	diskBusy := st.Disk.ServiceSum.Seconds()
	ratio := 0.0
	if diskBusy > 0 {
		ratio = cpuBusy / diskBusy
	}

	m := Metrics{
		Config:          cfg,
		Policy:          sys.Graph().Policy().Name(),
		TrimmedResponse: stats.TrimmedMean95(resp),
		MeanResponse:    stats.Mean(resp),
		MeanWait:        stats.Mean(wait),
		MeanExec:        stats.Mean(exec),
		AvgOverlap:      overlapSum / float64(max(len(results), 1)),
		Makespan:        col.Makespan().Seconds(),
		CPUBusySeconds:  cpuBusy,
		DiskBusySeconds: diskBusy,
		CPUToIORatio:    ratio,
		DiskUtilization: diskUtil,
		Server:          st.Server,
		Disk:            st.Disk,
		PageSpace:       st.PageSpace,
		DataStore:       st.DataStore,
		Graph:           st.Graph,
		Queries:         len(results),
		Spans:           sys.Spans(),
	}
	snap := sys.Metrics().Snapshot()
	m.Registry = &snap
	return m, nil
}

// Policies is the paper's presentation order.
var Policies = []string{"fifo", "muf", "ff", "cf", "cnbf", "sjf"}

// MB is a byte-count helper for budgets.
const MB = int64(1) << 20
