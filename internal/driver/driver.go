// Package driver forwards the benchmark harness's calls for the paper's
// workload to load.Clients, which generates it.
package driver

import (
	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// WorkloadConfig picks the operator and the seed of the paper's workload.
type WorkloadConfig struct {
	Op   vm.Op
	Seed int64
}

// Generate is the paper's browsing clients over table (load.Clients with the
// Browse pattern and the paper's defaults), one query list per client.
func Generate(cfg WorkloadConfig, table *dataset.Table) [][]vm.Meta {
	items := load.Clients(load.GenConfig{Pattern: load.Browse, Op: cfg.Op, Seed: cfg.Seed}, table)
	lists := make([][]vm.Meta, items[len(items)-1].User+1)
	for u := range lists {
		lists[u] = make([]vm.Meta, 0, len(items)/len(lists))
	}
	for _, it := range items {
		lists[it.User] = append(lists[it.User], it.Meta.(vm.Meta))
	}
	return lists
}
