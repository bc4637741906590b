package mqsched

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"mqsched/internal/disk"
	"mqsched/internal/sched"
)

// BindFlags registers one flag per system knob on fs. Each flag writes
// exactly one field of c, and its default is the field's value at the time
// of the call (zero fields resolved as New would), so a binary states its
// own defaults by filling c first. c.Mode picks the substrate-specific
// flags: -cpus exists only for the simulated SMP, -timescale only for the
// real clock.
//
// This list is the system's command line: cmd/mqserver and cmd/mqbench add
// only what is theirs (addresses, slides, the workload) on top, and README's
// configuration table is written from it.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	*c = c.withDefaults()

	fs.StringVar(&c.Policy, "policy", c.Policy, "ranking strategy: "+strings.Join(sched.Names(), ", "))
	fs.Float64Var(&c.BatchStarvation, "batch-starvation", c.BatchStarvation, "batch policy aging blend toward arrival order (0 = default, negative disables aging)")
	fs.IntVar(&c.BatchMaxGroup, "batch-group", c.BatchMaxGroup, "max queries claimed per batch dispatch (0 = default)")
	fs.IntVar(&c.Threads, "threads", c.Threads, "query threads")
	fs.IntVar(&c.Disks, "disks", c.Disks, "spindles in the disk farm")
	fs.Func("io-sched", fmt.Sprintf("per-spindle service discipline: fifo (the paper's model) or elevator (reorder + merge) (default %s)", c.IOSched),
		func(v string) (err error) { c.IOSched, err = disk.ParseSched(v); return })
	fs.Func("ds", fmt.Sprintf("data store MB, -1 disables caching (default %d)", c.DSBudget>>20), megabytes(&c.DSBudget))
	fs.StringVar(&c.DSPolicy, "ds-policy", c.DSPolicy, "data store cache policy: lru (the paper's cache-everything store) or cost (benefit-aware eviction + admission control + proactive materialization)")
	fs.Func("ps", fmt.Sprintf("page space MB (default %d)", c.PSBudget>>20), megabytes(&c.PSBudget))
	fs.IntVar(&c.TraceCapacity, "trace-buffer", c.TraceCapacity, "span ring-buffer capacity (0 disables span tracing)")
	fs.DurationVar(&c.SlowQueryThreshold, "slowlog", c.SlowQueryThreshold, "log the span tree of queries slower than this (runtime clock; 0 disables the fixed threshold)")
	fs.Float64Var(&c.SlowQueryPercentile, "slowlog-pct", c.SlowQueryPercentile, "log queries slower than this trailing percentile of recent responses, e.g. 99 (0 disables)")
	fs.IntVar(&c.ComputeParallelism, "compute-workers", c.ComputeParallelism, "intra-query compute worker bound on the real runtime (0 = GOMAXPROCS, 1 = serial per-query loop; the simulated runtime is always serial)")
	switch c.Mode {
	case Simulated:
		fs.IntVar(&c.CPUs, "cpus", c.CPUs, "processors of the simulated SMP")
	case Real:
		fs.Float64Var(&c.TimeScale, "timescale", c.TimeScale, "compression of modelled disk time")
	}
}

// megabytes parses a budget flag given in MB into bytes; a negative value
// stays -1, the data store's "disabled".
func megabytes(dst *int64) func(string) error {
	return func(v string) error {
		mb, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		*dst = max(mb<<20, -1)
		return nil
	}
}
