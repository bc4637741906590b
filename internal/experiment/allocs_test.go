package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"mqsched/internal/vm"
)

// simQueryMallocs bounds the heap allocations of one simulated query, read
// from runtime.MemStats over a whole paper-scale run (16 clients x 16
// queries, seed 1) and divided by its queries, so assembling the system and
// generating the workload count too. A page set is a value and per-query
// scratch is reused by its owner; what is left is mostly the query's own
// records (its node, result, blob and data store entry) and the page
// table's growth until the budget fills. Each bound is the count measured
// when it was set (in the comment), rounded up, plus 15 % for allocations of
// the Go runtime's own.
var simQueryMallocs = map[string]float64{
	"fifo/subsample":     30, // 25.5
	"fifo/average":       28, // 23.6
	"cf/subsample":       32, // 27.1
	"cf/average":         32, // 27.7
	"cnbf/subsample":     32, // 27.4
	"cnbf/average":       29, // 24.4
	"sjf/subsample":      33, // 28.1
	"sjf/average":        28, // 23.6
	"combined/subsample": 30, // 25.4
	"combined/average":   28, // 24.0
	"ra/subsample":       29, // 24.6
	"ra/average":         29, // 24.7
}

func TestSimulatedQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve paper-scale cells")
	}
	for _, pol := range []string{"fifo", "cf", "cnbf", "sjf", "combined", "ra"} {
		for _, op := range []vm.Op{vm.Subsample, vm.Average} {
			name := fmt.Sprintf("%s/%s", pol, op)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := Run(Config{Policy: pol, Op: op, Seed: 1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			perQuery := float64(after.Mallocs-before.Mallocs) / float64(m.Queries)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(m.Queries)
			if printing() {
				fmt.Printf("%-20s %6.1f mallocs/query %5.2f KB/query\n", name, perQuery, kb)
				continue
			}
			if bound := simQueryMallocs[name]; perQuery > bound {
				t.Errorf("%s: %.1f allocations per query, bound %.0f (%.2f KB/query)", name, perQuery, bound, kb)
			}
		}
	}
}
