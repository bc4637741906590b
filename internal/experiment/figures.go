package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mqsched/internal/load"
	"mqsched/internal/stats"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

// The evaluation as data: a Spec is one table — the axis it sweeps, the
// strategies it compares, the columns it reads — and Sweep runs any of them.
// cmd/mqbench prints Specs, the root BenchmarkPaper runs their cells and the
// golden tests pin cells by name. Runs are seeded by the base Config's Seed;
// its zero fields take the paper's defaults.

// An Axis is the Config field a spec sweeps: a name, the label format of a
// value and the setter. A value's cell is named name=label.
type Axis struct {
	Name, Format string
	Set          func(c *Config, v any)
}

func (a Axis) label(v any) string { return fmt.Sprintf(a.Format, v) }

var (
	threads  = Axis{"T", "%d", func(c *Config, v any) { c.Threads = v.(int) }}
	dsMB     = Axis{"DS", "%dMB", func(c *Config, v any) { c.DSBudget = int64(v.(int)) * MB }}
	alpha    = Axis{"alpha", "%.2f", func(c *Config, v any) { c.CFAlpha = v.(float64) }}
	depth    = Axis{"depth", "%d", func(c *Config, v any) { c.PrefetchDepth = v.(int) }}
	seed     = Axis{"seed", "%d", func(c *Config, v any) { c.Seed = int64(v.(int)) }}
	mode     = Axis{"mode", "%v", func(c *Config, v any) { c.Mode = v.(load.Pattern) }}
	dedup    = Axis{"dedup", "%s", func(c *Config, v any) { c.DisablePSDedup = v == "off" }}
	blocking = Axis{"blocking", "%s", func(c *Config, v any) { c.DisableBlocking = v == "off" }}
	cache    = Axis{"cache", "%s", func(c *Config, v any) { c.DSBudget = map[any]int64{"off": -1, "on": c.DSBudget}[v] }}
)

// A variant is a setting added to a cell's run; its name ends the cell's.
// A Metric with a variant reads a run of its own beside the cell's: a batch
// re-run, or another thread count.
type variant struct {
	name string
	set  func(*Config)
}

var batch = &variant{"batch", func(c *Config) { c.Batch = true }}

// at is the variant that sets a to v; nil when there is no axis.
func at(a Axis, v any) *variant {
	if a.Set == nil {
		return nil
	}
	return &variant{a.Name + "=" + a.label(v), func(c *Config) { a.Set(c, v) }}
}

// A Metric is one column: its header (ByColumn, a format for each value's
// label), the unit BenchmarkPaper reports it in ("" for none), what it reads,
// and the variant whose run it reads (nil: the cell's own).
type Metric struct {
	Header, Unit string
	Get          func(Metrics) any
	run          *variant
}

func resp(m Metrics) any     { return m.TrimmedResponse }
func overlap(m Metrics) any  { return m.AvgOverlap }
func makespan(m Metrics) any { return m.Makespan }
func readGB(m Metrics) any   { return float64(m.Disk.BytesRead) / float64(1<<30) }

// Layout is where a spec's values go.
type Layout int

const (
	ByRow    Layout = iota // a row each, labelled in a column named after the axis
	ByColumn               // a column each, per metric
	Pooled                 // one column per metric: mean ± sd over the values
)

// A Spec is one table; its Title and Notes may hold {op}, {clients} and
// {queries}. Ops are the VM implementations it covers itself (nil: it runs
// once per -op); Base holds the overrides every cell takes; Gain (ByColumn)
// ends each metric's columns with the change from its first value to its last.
type Spec struct {
	ID, Title string
	Notes     []string
	Axis      Axis
	Values    []any
	Policies  []string
	Ops       []vm.Op
	Base      func(*Config)
	Metrics   []Metric
	Layout    Layout
	Gain      bool
	run       func(Config) (Metrics, error) // nil: Run
}

var (
	bothOps = []vm.Op{vm.Subsample, vm.Average}
	mems    = []any{32, 64, 96, 128}
)

// Specs is the paper's evaluation (§5), with the ablations and extensions
// on top, in mqbench's order; DESIGN.md §5 indexes it. Only V1 does not run
// through Run: it assembles another application.
var Specs = []Spec{{
	ID: "e1", Title: "E1: effect of intermediate-result caching on FIFO and SJF (§5)",
	Notes: []string{"paper: caching improves FIFO and SJF substantially (tens of percent), more for averaging than subsampling"},
	Ops:   bothOps, Policies: []string{"fifo", "sjf"}, Axis: cache, Values: []any{"off", "on"}, Layout: ByColumn, Gain: true,
	Metrics: []Metric{{"response %s(s)", "resp_s", resp, nil}, {"batch %s(s)", "batch_s", makespan, batch}},
}, {
	ID: "fig4", Title: "Figure 4 ({op}): 95%-trimmed query response time (s) vs number of threads",
	Notes: []string{"paper: FIFO discernibly worst; MUF/FF/CF/CNBF slightly better than SJF;",
		"performance degrades past an optimal thread count (4 in the paper) as the I/O subsystem saturates;",
		"the averaging implementation scales further than the subsampling one"},
	Policies: Policies, Axis: threads, Values: []any{1, 2, 4, 8, 16, 24}, Layout: ByColumn,
	Metrics: []Metric{{"T=%s", "resp_s", resp, nil}},
}, {
	ID: "fig5", Title: "Figure 5 ({op}): average overlap vs DS memory",
	Notes:    []string{"paper: overlap increases with DS size; for small caches (32MB) CF and CNBF achieve the highest overlap"},
	Policies: Policies, Axis: dsMB, Values: mems, Layout: ByColumn, Metrics: []Metric{{"%s", "overlap", overlap, nil}},
}, {
	ID: "fig6", Title: "Figure 6 ({op}): 95%-trimmed query response time (s) vs DS memory",
	Notes: []string{"paper: more DS memory lowers response time; higher overlap (CF/CNBF) does not always translate",
		"into lower response time because those queries wait longer in the queue"},
	Policies: Policies, Axis: dsMB, Values: mems, Layout: ByColumn, Metrics: []Metric{{"%s", "resp_s", resp, nil}},
}, {
	ID: "fig7", Title: "Figure 7 ({op}): total execution time (s) of a single batch vs DS memory",
	Notes:    []string{"paper: CF and CNBF beat the other strategies, especially when resources are scarce (small DS)"},
	Policies: Policies, Axis: dsMB, Values: mems, Layout: ByColumn, Metrics: []Metric{{"%s", "batch_s", makespan, nil}},
	Base: func(c *Config) { c.Batch = true },
}, {
	ID: "a1", Title: "A1 ({op}): CF alpha sweep",
	Notes:    []string{"paper fixes alpha=0.2; alpha weights dependencies on still-executing producers"},
	Policies: []string{"cf"}, Axis: alpha, Values: []any{0.01, 0.2, 0.5, 0.8},
	Metrics: []Metric{{"trimmed response(s)", "resp_s", resp, nil}, {"avg overlap", "overlap", overlap, nil},
		{"batch makespan(s)", "batch_s", makespan, batch}},
}, {
	ID: "a2", Title: "A2 ({op}): page space duplicate elimination",
	Notes:    []string{"PS dedup merges concurrent requests for the same chunk (paper §2)"},
	Policies: []string{"fifo", "cf"}, Axis: dedup, Values: []any{"on", "off"},
	Metrics: []Metric{{"trimmed response(s)", "resp_s", resp, nil},
		{"disk reads", "disk_reads", func(m Metrics) any { return m.Disk.Reads }, nil}, {"bytes read (GB)", "read_GB", readGB, nil}},
}, {
	ID: "a3", Title: "A3 ({op}): blocking on executing producers",
	Notes:    []string{"blocking avoids duplicate I/O at the cost of stalls — the trade-off FF and CNBF rank around"},
	Policies: []string{"ff", "cnbf"}, Axis: blocking, Values: []any{"on", "off"},
	Metrics: []Metric{{"trimmed response(s)", "resp_s", resp, nil}, {"blocks", "blocks", func(m Metrics) any { return m.Server.Blocks }, nil},
		{"avg overlap", "overlap", overlap, nil}, {"bytes read (GB)", "read_GB", readGB, nil}},
}, {
	// Read-ahead overlaps a query's computation with its own I/O and spreads
	// it over the spindles, which matters most with few concurrent queries.
	ID: "a4", Title: "A4 ({op}): chunk read-ahead depth",
	Notes:    []string{"depth 0 is the paper's synchronous chunk retrieval"},
	Policies: []string{"cnbf"}, Axis: depth, Values: []any{0, 2, 8},
	Metrics: []Metric{{"T=1 trimmed response(s)", "resp_s", resp, at(threads, 1)}, {"T=4 trimmed response(s)", "resp_s", resp, at(threads, 4)},
		{"prefetches", "prefetches", func(m Metrics) any { return m.PageSpace.Prefetches }, at(threads, 4)}},
}, {
	ID: "x2", Title: "X2 ({op}): trimmed response (s) across browsing patterns",
	Notes: []string{"pan chains each frame to its predecessor; zoomstack revisits one center across magnifications;",
		"the reuse-aware strategies' advantage over FIFO depends on the overlap structure"},
	Policies: Policies, Axis: mode, Values: []any{load.Browse, load.Pan, load.ZoomStack}, Layout: ByColumn,
	Metrics: []Metric{{"%s", "resp_s", resp, nil}},
}, {
	ID: "x3", Title: "X3 ({op}): robustness across 5 workload seeds (mean ± sd)",
	Policies: Policies, Axis: seed, Values: []any{1, 2, 3, 4, 5}, Layout: Pooled,
	Metrics: []Metric{{"trimmed response (s)", "resp_s", resp, nil}, {"avg overlap", "overlap", overlap, nil},
		{"batch makespan (s)", "batch_s", makespan, batch}},
}, {
	ID: "x1", Title: "X1 ({op}): future-work strategies vs the paper's six (§6)",
	Notes: []string{"combined = CNBF locality − β·qinputsize (the SJF+locality combination the conclusions suggest);",
		"ra = locality penalized by live CPU/disk utilization (low-level metrics)"},
	Policies: append(slices.Clone(Policies), "combined", "ra"),
	Metrics: []Metric{{"trimmed response(s)", "resp_s", resp, nil}, {"avg overlap", "overlap", overlap, nil},
		{"batch makespan(s)", "batch_s", makespan, batch}},
}, {
	ID: "v1", Title: "V1: ranking strategies on the 3-D volume visualization app (future work §6)",
	Notes: []string{"maximum-intensity projections of slabs of two 8192x8192x64 volumes, {clients} clients x {queries} queries"},
	Ops:   []vm.Op{vm.Subsample}, Policies: Policies, run: runVolume,
	Metrics: []Metric{{"trimmed response (s)", "resp_s", resp, nil}, {"avg overlap", "overlap", overlap, nil},
		{"makespan (s)", "makespan_s", makespan, nil}},
}, {
	// The paper's ratios are those of the raw implementations: no reuse.
	ID: "calibration", Title: "Calibration: CPU:I/O ratio of the two VM implementations (§5)",
	Ops: bothOps, Policies: []string{"fifo"}, Base: func(c *Config) { c.DSBudget = -1 },
	Metrics: []Metric{{"cpu busy (s)", "cpu_s", func(m Metrics) any { return m.CPUBusySeconds }, nil},
		{"disk busy (s)", "disk_s", func(m Metrics) any { return m.DiskBusySeconds }, nil},
		{"CPU:I/O", "ratio", func(m Metrics) any { return m.CPUToIORatio }, nil},
		{"paper", "", func(m Metrics) any {
			return map[vm.Op]string{vm.Subsample: "0.04-0.06", vm.Average: "~1:1"}[m.Config.Op]
		}, nil}},
}}

// A Cell is one run of a spec and the metrics read from it, named
// <id>/<op>/<policy>[/<axis>=<value>][/<variant>], e.g. fig4/average/cf/T=8.
type Cell struct {
	Name    string
	Config  Config
	Metrics []Metric
	run     func(Config) (Metrics, error)
}

// Run runs the cell.
func (c Cell) Run() (Metrics, error) { return c.run(c.Config) }

// Cells lists the runs of s over base: the ones its table reads.
func (s Spec) Cells(base Config) []Cell {
	var cells []Cell
	s.table(base, func(c Cell) Metrics {
		if i := slices.IndexFunc(cells, func(o Cell) bool { return o.Name == c.Name }); i >= 0 {
			cells[i].Metrics = append(cells[i].Metrics, c.Metrics...)
		} else {
			cells = append(cells, c)
		}
		return Metrics{}
	})
	return cells
}

// A Job is one table to sweep: a spec over a base config.
type Job struct {
	Spec Spec
	Base Config
}

// Sweep runs every cell of s over base and lays the results out as s's table:
// SweepAll of one job.
func Sweep(s Spec, base Config) (Table, error) {
	tbs, err := SweepAll([]Job{{s, base}})
	if err != nil {
		return Table{}, err
	}
	return tbs[0], nil
}

// SweepAll runs every cell of every job and lays each job's results out as
// its spec's table, in job order. Each cell is its own simulation, and a
// simulation keeps one OS thread busy, so the cells of all the jobs run on
// one pool of GOMAXPROCS workers: no table waits for the slowest cell of the
// one before it. A result is kept by its cell's index and the first error in
// job and cell order is returned: the tables do not depend on the order the
// cells finish in.
func SweepAll(jobs []Job) ([]Table, error) {
	var cells []Cell
	ends := make([]int, len(jobs)) // job j's cells end at ends[j]
	for j, jb := range jobs {
		cells = append(cells, jb.Spec.Cells(jb.Base)...)
		ends[j] = len(cells)
	}
	runs := make([]Metrics, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				runs[i], errs[i] = cells[i].Run()
			}
		}()
	}
	wg.Wait()
	tables := make([]Table, len(jobs))
	start := 0
	for j, jb := range jobs {
		got := make(map[string]Metrics, ends[j]-start)
		for i := start; i < ends[j]; i++ {
			if errs[i] != nil {
				return nil, fmt.Errorf("%s: %w", cells[i].Name, errs[i])
			}
			got[cells[i].Name] = runs[i]
		}
		tables[j] = jb.Spec.table(jb.Base, func(c Cell) Metrics { return got[c.Name] })
		start = ends[j]
	}
	return tables, nil
}

// table lays s out over base, reading each cell's run through read.
func (s Spec) table(base Config, read func(Cell) Metrics) Table {
	d := base.withDefaults()
	r := strings.NewReplacer("{op}", opLabel(base.Op), "{clients}", fmt.Sprint(d.Clients), "{queries}", fmt.Sprint(d.QueriesPerClient))
	t := Table{Title: r.Replace(s.Title)}
	for _, n := range s.Notes {
		t.Notes = append(t.Notes, r.Replace(n))
	}
	ops, rows := s.Ops, [][]any{s.Values} // ByColumn and Pooled read every value in one row
	if ops == nil {
		ops = []vm.Op{base.Op}
	}
	if s.Layout == ByRow {
		rows = nil
		for _, v := range s.Values {
			rows = append(rows, []any{v})
		}
		if rows == nil {
			rows = [][]any{{nil}} // no axis: one row
		}
	}
	lead := []bool{len(ops) > 1, s.Layout == ByRow && s.Axis.Set != nil, len(s.Policies) > 1}
	for _, op := range ops {
		for _, pol := range s.Policies {
			for _, vs := range rows {
				// Every row has the same header: each one writes it again.
				row, hdr := []any{}, []string{}
				for i, l := range []string{opLabel(op), s.Axis.label(vs[0]), policyLabel(pol)} {
					if lead[i] {
						row, hdr = append(row, l), append(hdr, []string{"app", s.Axis.Name, "policy"}[i])
					}
				}
				for _, mt := range s.Metrics {
					var xs []any
					for _, v := range vs {
						xs = append(xs, mt.Get(read(s.cell(base, op, pol, v, mt))))
						if s.Layout == ByColumn {
							hdr = append(hdr, fmt.Sprintf(mt.Header, s.Axis.label(v)))
						}
					}
					switch {
					case s.Layout == Pooled:
						row, hdr = append(row, meanSD(xs)), append(hdr, mt.Header)
					case s.Layout == ByRow:
						row, hdr = append(row, xs...), append(hdr, mt.Header)
					case s.Gain:
						row, hdr = append(append(row, xs...), pct(xs[0].(float64), xs[len(xs)-1].(float64))), append(hdr, "improvement")
					default:
						row = append(row, xs...)
					}
				}
				t.Header = hdr
				t.AddRow(row...)
			}
		}
	}
	return t
}

// cell is the run of op, pol and value v whose metric mt reads.
func (s Spec) cell(base Config, op vm.Op, pol string, v any, mt Metric) Cell {
	c := Cell{Name: s.ID + "/" + op.String() + "/" + pol, Config: base, Metrics: []Metric{mt}, run: s.run}
	if c.run == nil {
		c.run = Run
	}
	c.Config.Op, c.Config.Policy = op, pol
	if s.Base != nil {
		s.Base(&c.Config)
	}
	for _, p := range []*variant{at(s.Axis, v), mt.run} {
		if p != nil {
			c.Name += "/" + p.name
			p.set(&c.Config)
		}
	}
	return c
}

func pct(before, after float64) string {
	if before == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (before-after)/before*100)
}

func meanSD(xs []any) string {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = x.(float64)
	}
	return fmt.Sprintf("%.2f ± %.2f", stats.Mean(fs), stats.StdDev(fs))
}

// opLabel names the VM implementation the way the paper's captions do.
func opLabel(op vm.Op) string {
	if op == vm.Average {
		return "pixel averaging"
	}
	return "subsampling"
}

func policyLabel(p string) string {
	if l, ok := map[string]string{"combined": "Combined", "ra": "ResourceAware"}[p]; ok {
		return l
	}
	return strings.ToUpper(p)
}

// timelineColumns is the width of the timeline's sparklines; the run is cut
// into as many buckets.
const timelineColumns = 72

// TimelineReport runs the workload at 1, 4 and 16 threads with span tracing
// on and renders three curves from the spans, through the same traceviz
// views mqviz serves: the visual version of the Figure 4 story — with few
// threads the disks idle between CPU phases, at the optimum they stay busy,
// and beyond it the queue drains quickly but every query crawls because the
// spindles thrash. It stays outside Specs because it renders text, not a
// table.
func TimelineReport(base Config) (string, error) {
	if base.Policy == "" {
		base.Policy = "cnbf"
	}
	base = base.withDefaults()
	base.TraceSpans = true
	// The ring must hold the whole run. A query averages about 670 spans on
	// the paper's workload (a page-space and a disk span per page read) and
	// its largest, a 1024² output at zoom 8, some 6,500 — hence the floor for
	// short workloads, which can be all large queries.
	base.TraceCapacity = max(1<<17, 2048*base.Clients*base.QueriesPerClient)
	var b strings.Builder
	fmt.Fprintf(&b, "== Timeline (%s, %s): utilization while the workload runs ==\n", opLabel(base.Op), policyLabel(base.Policy))
	for _, th := range []int{1, 4, 16} {
		cfg := base
		cfg.Threads = th
		m, err := Run(cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\nthreads=%d  makespan=%.1fs  trimmed response=%.2fs\n", th, m.Makespan, m.TrimmedResponse)
		if d := m.Spans.Dropped(); d > 0 {
			fmt.Fprintf(&b, "(%d spans dropped: the curves cover the end of the run only)\n", d)
		}
		c := traceviz.LoadSpans("timeline", m.Spans.Spans(), nil)
		disk := make([]float64, timelineColumns)
		var spindles float64
		for _, row := range traceviz.Utilization(c, timelineColumns).Rows {
			if row.Class == "spindle" {
				spindles++
				for i, v := range row.Busy {
					disk[i] += v
				}
			}
		}
		for i := range disk {
			disk[i] /= max(spindles, 1)
		}
		tl := traceviz.ComputeTimelines(c, timelineColumns)
		for _, row := range []struct {
			name string
			vals []float64
		}{{"disk util", disk}, {"executing", tl.Executing}, {"waiting", tl.QueueDepth}} {
			fmt.Fprintf(&b, "%-12s %s  mean=%.2f\n", row.name, sparkline(row.vals), stats.Mean(row.vals))
		}
	}
	return b.String(), nil
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders non-negative vals as one bar per value, scaled from zero
// to the series' maximum: a quantity over time (utilization, queue depth)
// already cut into as many buckets as there are columns.
func sparkline(vals []float64) string {
	hi := 0.0
	for _, v := range vals {
		hi = max(hi, v)
	}
	if hi == 0 {
		hi = 1
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		out[i] = sparkRunes[int(max(v, 0)/hi*float64(len(sparkRunes)-1)+0.5)]
	}
	return string(out)
}
