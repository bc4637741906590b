// Package mqsched is a multi-query scheduling middleware for data-analysis
// applications, reproducing "Scheduling Multiple Data Visualization Query
// Workloads on a Shared Memory Machine" (Andrade, Kurc, Sussman, Saltz;
// IPPS 2002).
//
// The system answers spatial range queries with user-defined processing over
// large 2-D datasets. Incoming queries enter a scheduling graph whose edges
// carry reuse weights (how many bytes of one query's result can be
// transformed into another's); a configurable ranking strategy (FIFO, MUF,
// FF, CF, CNBF, SJF) orders execution. Completed results are kept in a
// semantic cache (the data store manager) and projected onto later
// overlapping queries; raw data is read through a page-cache (the page space
// manager) over a modelled disk farm.
//
// Two execution substrates are provided:
//
//   - Simulated (deterministic virtual time): the default for experiments —
//     it reproduces the paper's 24-processor SMP with contended CPUs and
//     disks, machine-independently.
//   - Real (goroutines and wall-clock time, scaled): runs the same
//     middleware with actual pixel data; used by the examples and the TCP
//     demo server.
//
// Quickstart:
//
//	table := mqsched.NewSlideTable(mqsched.Slide{Name: "slide1", Width: 4096, Height: 4096})
//	sys, _ := mqsched.New(mqsched.Config{Mode: mqsched.Real, Policy: "cf"}, table)
//	sys.RunWith(func(ctx mqsched.Ctx) {
//	    t, _ := sys.Submit(mqsched.NewVMQuery("slide1", mqsched.R(0, 0, 1024, 1024), 4, mqsched.Subsample))
//	    res := t.Wait(ctx)
//	    fmt.Println(res.ResponseTime())
//	})
package mqsched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/pagespace"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/sched"
	"mqsched/internal/server"
	"mqsched/internal/sim"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// Re-exported core types. The full lower-level APIs live in the internal
// packages; this facade covers the common embedding path.
type (
	// Ctx is the execution context passed to client processes.
	Ctx = rt.Ctx
	// Meta is a query predicate.
	Meta = query.Meta
	// Result is a completed query's result and timings.
	Result = query.Result
	// Ticket is the handle for a submitted query.
	Ticket = server.Ticket
	// Rect is a half-open integer rectangle.
	Rect = geom.Rect
	// Op is a Virtual Microscope processing function.
	Op = vm.Op
	// VMQuery is a Virtual Microscope predicate.
	VMQuery = vm.Meta
	// App is the user-defined operator set (implement it to port a new
	// data-analysis application onto the middleware).
	App = query.App
)

// VM processing functions.
const (
	// Subsample returns every N-th pixel (I/O-intensive).
	Subsample = vm.Subsample
	// Average computes each output pixel as the mean of N×N inputs
	// (CPU/I/O balanced).
	Average = vm.Average
)

// R constructs a Rect.
func R(x0, y0, x1, y1 int64) Rect { return geom.R(x0, y0, x1, y1) }

// NewVMQuery builds a Virtual Microscope query: window (base-resolution
// pixels, zoom-aligned — see AlignRect), magnification reduction factor
// zoom, and processing function op.
func NewVMQuery(slide string, window Rect, zoom int64, op Op) VMQuery {
	return vm.NewMeta(slide, window, zoom, op)
}

// AlignRect expands r to zoom-aligned coordinates within bounds.
func AlignRect(r Rect, zoom int64, bounds Rect) Rect { return vm.AlignRect(r, zoom, bounds) }

// Slide describes one synthetic microscopy dataset.
type Slide struct {
	Name          string
	Width, Height int64
}

// NewSlideTable registers slides (3-byte pixels, 64 KB pages).
func NewSlideTable(slides ...Slide) *dataset.Table {
	ls := make([]*dataset.Layout, len(slides))
	for i, s := range slides {
		ls[i] = vm.NewSlide(s.Name, s.Width, s.Height)
	}
	return dataset.NewTable(ls...)
}

// ParseSlides parses the -slides flag of the binaries: a comma-separated list
// of name:WxH specs with positive dimensions.
func ParseSlides(s string) ([]Slide, error) {
	var out []Slide
	for _, part := range strings.Split(s, ",") {
		name, dims, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad slide spec %q (want name:WxH)", part)
		}
		ws, hs, ok := strings.Cut(dims, "x")
		if !ok {
			return nil, fmt.Errorf("bad slide dims %q (want WxH)", dims)
		}
		w, err := strconv.ParseInt(ws, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad slide width %q: %v", ws, err)
		}
		h, err := strconv.ParseInt(hs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad slide height %q: %v", hs, err)
		}
		if w < 1 || h < 1 {
			return nil, fmt.Errorf("slide %q dimensions must be positive", name)
		}
		out = append(out, Slide{Name: name, Width: w, Height: h})
	}
	return out, nil
}

// BuildInfo identifies this build: the module version (or VCS revision when
// built from a checkout), the Go toolchain, and the advertised ranking
// strategy set. It labels the mqsched_build_info gauge and the trace_info
// metadata of every Chrome trace export, so a captured collection records
// which build and strategy vocabulary produced it.
func BuildInfo() map[string]string {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		}
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			version = rev
		}
	}
	return map[string]string{
		"version":    version,
		"go":         runtime.Version(),
		"strategies": strings.Join(sched.Names(), ","),
	}
}

// registerBuildInfo publishes the constant mqsched_build_info gauge (value
// 1, identity in the labels) on the registry, the Prometheus convention for
// exposing build identity to dashboards and to mqviz collection headers.
func registerBuildInfo(reg *metrics.Registry) {
	bi := BuildInfo()
	reg.Gauge("mqsched_build_info",
		"Build identity: constant 1, labelled with the build version, Go toolchain, and ranking strategy set.",
		metrics.L("version", bi["version"]),
		metrics.L("go", bi["go"]),
		metrics.L("strategies", bi["strategies"]),
	).Set(1)
}

// Mode selects the execution substrate.
type Mode int

const (
	// Simulated runs on deterministic virtual time (experiments).
	Simulated Mode = iota
	// Real runs on goroutines and wall-clock time with actual pixel data.
	Real
)

// Config configures a System.
type Config struct {
	// Mode selects the substrate (default Simulated).
	Mode Mode
	// Policy is the ranking strategy — one of sched.Names(): the paper's
	// fifo, muf, ff, cf, cnbf, sjf plus the data-driven batch executor — or
	// one of the future-work strategies combined, autotune, ra (default cf).
	Policy string
	// CFAlpha is the cf policy's weight on producers still executing (0 =
	// the paper's 0.2). Ignored by every other policy.
	CFAlpha float64
	// BatchStarvation tunes the batch policy's aging blend back toward
	// arrival order: 0 keeps sched.DefaultBatchStarvation, negative disables
	// aging entirely (pure data-hotness order, starvation-prone). Ignored by
	// every other policy.
	BatchStarvation float64
	// BatchMaxGroup caps the queries one batch dispatch claims together
	// (0 = server.DefaultBatchMaxGroup). Ignored by every other policy.
	BatchMaxGroup int
	// Threads is the query-thread pool size (default 4).
	Threads int
	// CPUs is the simulated SMP's processor count (default 24; ignored on
	// the real runtime).
	CPUs int
	// Disks is the disk farm size (default 4).
	Disks int
	// IOSched selects the per-spindle service discipline: disk.SchedFIFO
	// (default, the paper's one-page-at-a-time behaviour) or
	// disk.SchedElevator (per-disk reordering and multi-page merges).
	IOSched disk.Sched
	// DSBudget is the data store memory in bytes (default 64 MB; -1
	// disables result caching).
	DSBudget int64
	// DSPolicy selects the data store's cache policy: "lru" (default, the
	// paper's cache-everything/evict-by-recency data store) or "cost"
	// (benefit-aware eviction, admission control with a ghost list, and
	// proactive materialization of hot parent aggregates).
	DSPolicy string
	// PSBudget is the page space memory in bytes (default 32 MB).
	PSBudget int64
	// DisablePSDedup turns off the page space's in-flight duplicate
	// elimination (ablation A2).
	DisablePSDedup bool
	// TimeScale compresses modelled hardware times on the real runtime
	// (default 0.02).
	TimeScale float64
	// App overrides the application (default: the Virtual Microscope).
	App App
	// DisableBlocking stops queries stalling on overlapping executing
	// queries, which they do by default to avoid duplicate I/O (ablation A3).
	DisableBlocking bool
	// TraceSpans records per-query span trees (server, sched, data store,
	// page space, disk), retrievable via System.Spans — exportable as Chrome
	// trace_event JSON, rendered as a schedule by trace.Gantt, and feeding
	// the slow-query log. When false the span layer costs one nil check per
	// instrumentation site.
	TraceSpans bool
	// TraceCapacity bounds the span ring buffer (default 16384 spans;
	// ignored unless TraceSpans is set).
	TraceCapacity int
	// SlowQueryThreshold marks root spans slower than this duration
	// (runtime clock) as slow queries; see trace.TracerOptions.
	SlowQueryThreshold time.Duration
	// SlowQueryPercentile, in (0,100) e.g. 99, marks root spans slower than
	// this trailing percentile of recent responses as slow; see
	// trace.TracerOptions.
	SlowQueryPercentile float64
	// EnableMetrics does nothing: every system publishes its counters on
	// System.Metrics.
	//
	// Deprecated: kept only because the frozen bench/ harness still assigns
	// it; it goes with those assignments.
	EnableMetrics bool
	// ComputeParallelism bounds the worker goroutines one query may fan its
	// raw-chunk computation across on the real runtime: 1 keeps the serial
	// per-query loop, 0 selects a GOMAXPROCS-derived default, n > 1 caps
	// the fan-out. Ignored on the simulated runtime.
	ComputeParallelism int
}

// withDefaults resolves every zero field that has a fixed default, so the
// flag binder shows, and System.Config reports, the values the subsystems
// will run with.
func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "cf"
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.CPUs == 0 {
		c.CPUs = 24
	}
	if c.Disks == 0 {
		c.Disks = 4
	}
	if c.DSBudget == 0 {
		c.DSBudget = 64 << 20
	}
	if c.DSPolicy == "" {
		c.DSPolicy = "lru"
	}
	if c.PSBudget == 0 {
		c.PSBudget = 32 << 20
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.02
	}
	return c
}

// System is an assembled query server with its substrates.
type System struct {
	cfg    Config
	rtm    rt.Runtime
	simRT  *rt.SimRuntime  // nil on the real runtime
	realRT *rt.RealRuntime // nil on the simulated runtime
	table  *dataset.Table
	farm   *disk.Farm
	ps     *pagespace.Manager
	ds     *datastore.Manager
	graph  *sched.Graph
	srv    *server.Server
	spans  *trace.Tracer
	reg    *metrics.Registry

	cmu      sync.Mutex
	live     int  // Start'ed processes still running
	draining bool // Run was called: the last process to finish closes the server
}

// New assembles a system over the given datasets. On the real runtime the
// disk farm produces Virtual Microscope slide pages; embeddings of other
// applications use NewWithGenerator.
func New(cfg Config, table *dataset.Table) (*System, error) {
	return NewWithGenerator(cfg, table, vm.GeneratePage)
}

// NewWithGenerator is New with a custom page generator for the real runtime
// (the function producing raw chunk payloads for the configured App). The
// generator is unused on the simulated runtime. It is the one place the
// middleware stack — runtime, disk farm, page space, data store, scheduling
// graph, server — is wired together; examples, servers, the cluster harness
// and the experiment runners all build through it.
func NewWithGenerator(cfg Config, table *dataset.Table, gen disk.Generator) (*System, error) {
	cfg = cfg.withDefaults()
	s := &System{cfg: cfg, table: table}
	switch cfg.Mode {
	case Simulated:
		s.simRT = rt.NewSim(sim.New(), cfg.CPUs)
		s.rtm = s.simRT
		gen = nil // payloads are elided on the synthetic runtime
	case Real:
		s.realRT = rt.NewReal(rt.RealOptions{TimeScale: cfg.TimeScale})
		s.rtm = s.realRT
	default:
		return nil, fmt.Errorf("mqsched: unknown mode %d", cfg.Mode)
	}

	app := cfg.App
	if app == nil {
		app = vm.New(table)
	}
	policy, err := sched.Build(cfg.Policy, app, sched.Params{
		CFAlpha:         cfg.CFAlpha,
		BatchStarvation: cfg.BatchStarvation,
		Probe:           s.Utilization,
	})
	if err != nil {
		return nil, fmt.Errorf("mqsched: %w", err)
	}

	s.reg = metrics.NewRegistry()
	registerBuildInfo(s.reg)
	s.farm = disk.NewFarm(s.rtm, disk.Config{
		Disks: cfg.Disks,
		Sched: cfg.IOSched,
	}, gen)
	s.farm.UseMetrics(s.reg)
	s.ps = pagespace.New(s.rtm, table, s.farm, pagespace.Options{
		Budget:       cfg.PSBudget,
		DisableDedup: cfg.DisablePSDedup,
		Metrics:      s.reg,
	})
	if cfg.DSBudget >= 0 {
		dsPolicy, err := datastore.ParsePolicy(cfg.DSPolicy)
		if err != nil {
			return nil, fmt.Errorf("mqsched: %w", err)
		}
		s.ds = datastore.New(app, datastore.Options{
			Budget:  cfg.DSBudget,
			Policy:  dsPolicy,
			Metrics: s.reg,
		})
	}
	if cfg.TraceSpans {
		s.spans = trace.NewTracer(s.rtm.Now, trace.TracerOptions{
			Capacity:       cfg.TraceCapacity,
			SlowThreshold:  cfg.SlowQueryThreshold,
			SlowPercentile: cfg.SlowQueryPercentile,
		})
		// A truncated capture shows here while it happens, not only afterwards
		// in traceviz.
		s.reg.GaugeFunc("mqsched_trace_dropped_spans_total",
			"Spans evicted from the trace ring buffer before export.",
			func() float64 { return float64(s.spans.Dropped()) })
		s.reg.GaugeFunc("mqsched_trace_spans",
			"Spans currently held in the trace ring buffer.",
			func() float64 { return float64(s.spans.Len()) })
	}
	s.graph = sched.New(s.rtm, app, policy)
	s.graph.UseMetrics(s.reg)
	s.srv = server.New(s.rtm, app, s.graph, s.ds, s.ps, server.Options{
		Threads:            cfg.Threads,
		BlockOnExecuting:   !cfg.DisableBlocking,
		ComputeParallelism: cfg.ComputeParallelism,
		BatchMaxGroup:      cfg.BatchMaxGroup,
		Spans:              s.spans,
		Metrics:            s.reg,
	})
	return s, nil
}

// Submit enqueues a query.
func (s *System) Submit(m Meta) (*Ticket, error) { return s.srv.Submit(m) }

// Cancel abandons a query that has not started executing; see
// server.Server.Cancel.
func (s *System) Cancel(t *Ticket) bool { return s.srv.Cancel(t) }

// Start launches a client process. On the simulated runtime the process
// only executes once Run drives the virtual clock. A process may Start
// further processes; the bookkeeping is one counter, so a long-lived server
// that starts a process per request holds nothing for the finished ones.
func (s *System) Start(name string, fn func(Ctx)) {
	s.cmu.Lock()
	s.live++
	s.cmu.Unlock()
	s.rtm.Spawn(name, func(ctx Ctx) {
		defer s.finished()
		fn(ctx)
	})
}

// finished retires one Start'ed process; under Run the last one out closes
// the server so the query threads exit.
func (s *System) finished() {
	s.cmu.Lock()
	s.live--
	last := s.draining && s.live == 0
	s.cmu.Unlock()
	if last {
		s.srv.Close()
	}
}

// Run drives the system to completion: every process launched with Start
// (before Run, or by another such process) runs; once all of them finish
// the server shuts down and Run returns. On the simulated runtime this
// executes the virtual clock; on the real runtime it blocks until all
// goroutines exit.
func (s *System) Run() error {
	s.cmu.Lock()
	s.draining = true
	idle := s.live == 0
	s.cmu.Unlock()
	if idle {
		s.srv.Close()
	}
	if s.simRT != nil {
		return s.simRT.Engine().Run()
	}
	s.realRT.Wait()
	return nil
}

// RunWith starts fn as the only client and runs to completion.
func (s *System) RunWith(fn func(Ctx)) error {
	s.Start("main", fn)
	return s.Run()
}

// Spans returns the span tracer (nil unless Config.TraceSpans was set).
func (s *System) Spans() *trace.Tracer { return s.spans }

// Metrics returns the registry every subsystem's counters are published on;
// Stats reads the same counters. It is never nil.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// Server exposes the underlying query server.
func (s *System) Server() *server.Server { return s.srv }

// Graph exposes the scheduling graph (queue depth, the active policy).
func (s *System) Graph() *sched.Graph { return s.graph }

// Runtime exposes the execution substrate, for processes that observe the
// run rather than query it (monitors) and for its clock.
func (s *System) Runtime() rt.Runtime { return s.rtm }

// Config returns the configuration with every default resolved.
func (s *System) Config() Config { return s.cfg }

// Utilization returns the time-averaged busy fraction of the modelled CPUs
// and disks, both in [0, 1]. The real runtime models neither, so both are 0
// there. It is the load probe of the ra policy.
func (s *System) Utilization() (cpu, disk float64) {
	if s.simRT == nil {
		return 0, 0
	}
	return s.simRT.CPUUtilization(), s.farm.Utilization()
}

// Datasets exposes the registered dataset table.
func (s *System) Datasets() *dataset.Table { return s.table }

// Stats bundles subsystem counters.
type Stats struct {
	Server    server.Stats
	Disk      disk.Stats
	PageSpace pagespace.Stats
	DataStore datastore.Stats
	Graph     sched.GraphStats
}

// Stats reads all subsystem counters: a typed view of what Metrics publishes.
func (s *System) Stats() Stats {
	st := Stats{
		Server:    s.srv.Stats(),
		Disk:      s.farm.Stats(),
		PageSpace: s.ps.Stats(),
		Graph:     s.graph.Stats(),
	}
	if s.ds != nil {
		st.DataStore = s.ds.Stats()
	}
	return st
}
