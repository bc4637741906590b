// Package experiment runs the full system on the simulated runtime and
// reproduces the paper's evaluation (§5): one Run per configuration, and one
// table of specs (Specs) that Sweep turns into the paper's tables and
// figures. Every run assembles its stack through mqsched.New. See DESIGN.md
// §5 for the experiment index and EXPERIMENTS.md for recorded results.
package experiment

import (
	"cmp"
	"fmt"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/load"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/sched"
	"mqsched/internal/server"
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
	// sjf, batch, combined or ra (default fifo).
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
	// Mode selects the client browsing pattern: load.Browse, the paper's and
	// what the zero value means, Pan or ZoomStack (experiment X2).
	Mode load.Pattern
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

// Slides builds the dataset table the run is over: the paper's three
// 3-byte-pixel slides in 64 KB pages at SlideSide (at the paper's 30000
// pixels ~2.7 GB each, never materialized on the simulated runtime). It is
// the one table the system, the workload generator and any replayed stream's
// validation (load.ReadStream) share.
func (c Config) Slides() *dataset.Table {
	side := c.withDefaults().SlideSide
	return mqsched.NewSlideTable(
		mqsched.Slide{Name: "slide1", Width: side, Height: side},
		mqsched.Slide{Name: "slide2", Width: side, Height: side},
		mqsched.Slide{Name: "slide3", Width: side, Height: side},
	)
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

// Stream is the run's workload as generated from the configuration: the
// paper's emulated clients (load.Clients) over Slides.
func (c Config) Stream() []load.Item {
	c = c.withDefaults()
	return load.Clients(load.GenConfig{
		Pattern: cmp.Or(c.Mode, load.Browse), Users: c.Clients, Queries: c.QueriesPerClient,
		Op: c.Op, Seed: c.Seed,
	}, c.Slides())
}

// Pacing is how the paper replays that stream: interactive clients are the
// closed loop; the batch is the open one, every arrival being at 0.
func (c Config) Pacing() load.Pacing { return load.Pacing{Closed: !c.Batch} }

// Metrics summarize one run: what its clients saw (the Summary both
// substrates report), plus what the simulated system did. Times are virtual
// seconds, so results are deterministic in the seeds.
type Metrics struct {
	Config Config
	Policy string

	load.Summary

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

	// Registry is the end-of-run snapshot of the system's metrics registry.
	Registry *metrics.Snapshot

	// Spans is the run's span tracer when Config.TraceSpans was set (export
	// with WriteChromeInfo, analyse with internal/traceviz).
	Spans *trace.Tracer
}

// Run executes one configuration to completion on the simulated runtime,
// generating the workload and its pacing from the configuration.
func Run(cfg Config) (Metrics, error) {
	return RunWorkload(cfg, cfg.Stream(), cfg.Pacing(), 0)
}

// RunWorkload is Run with an explicit stream of VM queries over cfg.Slides()
// (generated with load.Build, or read with load.ReadStream), its pacing, and
// a warm-up: queries arriving before it still run, heating the caches, but
// are left out of the statistics. Closed pacing takes none, since its users
// ignore the arrival instants a warm-up is measured by.
func RunWorkload(cfg Config, items []load.Item, p load.Pacing, warmup time.Duration) (Metrics, error) {
	cfg = cfg.withDefaults()
	sys, err := cfg.assembleVM()
	if err != nil {
		return Metrics{}, err
	}
	return cfg.measure(sys, items, p, warmup)
}

// measure replays the stream over sys (freshly assembled from cfg, its clock
// at 0) and summarizes the run.
func (cfg Config) measure(sys *mqsched.System, items []load.Item, p load.Pacing, warmup time.Duration) (Metrics, error) {
	switch {
	case len(items) == 0:
		return Metrics{}, fmt.Errorf("experiment: empty stream")
	case warmup < 0:
		return Metrics{}, fmt.Errorf("experiment: warmup %v < 0", warmup)
	case warmup > 0 && p.Closed:
		return Metrics{}, fmt.Errorf("experiment: warmup %v under closed pacing would measure nothing: closed users ignore the arrival instants a warmup is measured by", warmup)
	}
	done, err := Replay(sys, items, p)
	if err != nil {
		return Metrics{}, fmt.Errorf("experiment %v: %w", cfg.Policy, err)
	}

	records := make([]load.Done, len(done))
	for i, d := range done {
		records[i] = d.record()
	}

	st := sys.Stats()
	cpuUtil, diskUtil := sys.Utilization()
	cpuBusy := cpuUtil * float64(sys.Config().CPUs) * sys.Runtime().Now().Seconds()
	diskBusy := st.Disk.ServiceSum.Seconds()

	m := Metrics{
		Config:          cfg,
		Policy:          sys.Graph().Policy().Name(),
		Summary:         load.Summarize(records, p, warmup),
		CPUBusySeconds:  cpuBusy,
		DiskBusySeconds: diskBusy,
		DiskUtilization: diskUtil,
		Server:          st.Server,
		Disk:            st.Disk,
		PageSpace:       st.PageSpace,
		DataStore:       st.DataStore,
		Graph:           st.Graph,
		Spans:           sys.Spans(),
	}
	if diskBusy > 0 {
		m.CPUToIORatio = cpuBusy / diskBusy
	}
	if out := st.Server.ReusedOutputBytes + st.Server.ComputedOutputBytes; out > 0 {
		m.ReusedBytesFrac = float64(st.Server.ReusedOutputBytes) / float64(out)
	}
	snap := sys.Metrics().Snapshot()
	m.Registry = &snap
	return m, nil
}

// Policies is the paper's presentation order.
var Policies = []string{"fifo", "muf", "ff", "cf", "cnbf", "sjf"}

// MB is a byte-count helper for budgets.
const MB = int64(1) << 20
