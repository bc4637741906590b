package mqsched

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/sched"
)

// BindFlags registers one flag per system knob on fs. Each flag writes
// exactly one field of c, and its default is the field's value at the time
// of the call (zero fields resolved as New would), so a binary states its
// own defaults by filling c first. c.Mode picks the substrate-specific
// flags: -cpus exists only for the simulated SMP; -timescale and -slowlog
// only for the real clock, the runtime mqserver serves and prints slow
// queries from.
//
// This list is the system's command line: cmd/mqserver and cmd/mqbench add
// only what is theirs (addresses, slides, the workload) on top, and README's
// configuration table is written from it.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	*c = c.withDefaults()

	fs.StringVar(&c.Policy, "policy", c.Policy, "ranking strategy: "+strings.Join(sched.Names(), ", "))
	fs.IntVar(&c.Threads, "threads", c.Threads, "query threads")
	fs.IntVar(&c.Disks, "disks", c.Disks, "spindles in the disk farm")
	fs.Func("io-sched", fmt.Sprintf("per-spindle service discipline: fifo (the paper's model) or elevator (reorder + merge) (default %s)", c.IOSched),
		func(v string) (err error) { c.IOSched, err = disk.ParseSched(v); return })
	fs.Func("ds", fmt.Sprintf("data store MB, -1 disables caching (default %d)", c.DSBudget>>20), megabytes(&c.DSBudget))
	fs.Func("ds-policy", fmt.Sprintf("data store cache policy: lru (the paper's cache-everything store) or cost (benefit-aware eviction + admission control) (default %s)", c.DSPolicy),
		func(v string) (err error) { c.DSPolicy, err = datastore.ParsePolicy(v); return })
	fs.Func("ps", fmt.Sprintf("page space MB (default %d)", c.PSBudget>>20), megabytes(&c.PSBudget))
	fs.IntVar(&c.TraceCapacity, "trace-buffer", c.TraceCapacity, "span ring-buffer capacity (0 disables span tracing)")
	switch c.Mode {
	case Simulated:
		fs.IntVar(&c.CPUs, "cpus", c.CPUs, "processors of the simulated SMP")
	case Real:
		fs.Float64Var(&c.TimeScale, "timescale", c.TimeScale, "compression of modelled disk time")
		fs.DurationVar(&c.SlowQueryThreshold, "slowlog", c.SlowQueryThreshold, "log the span tree of queries slower than this (0 disables)")
	}
}

// megabytes parses a budget flag given in MB into bytes; a negative value
// stays -1, the data store's "disabled". A value whose byte count does not
// fit an int64 is refused, not wrapped.
func megabytes(dst *int64) func(string) error {
	return func(v string) error {
		mb, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		if mb<<20>>20 != mb {
			return fmt.Errorf("%d MB overflows a byte count", mb)
		}
		*dst = max(mb<<20, -1)
		return nil
	}
}
