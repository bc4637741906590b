package main

import (
	"mqsched"
	"mqsched/internal/cluster"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units and
// directions; the smoke test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundedDef is an end-to-end metric: Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression. Layer
// metrics have no bound.
type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

// endToEnd is what a viewer, or whoever pays for the machine, sees. Every
// workload reports all of them, measured with tracing off.
var endToEnd = []boundedDef{
	{metricDef{"setup_s", "s", "lower"}, 0.25},
	{metricDef{"qps", "1/s", "higher"}, 0.25},
	{metricDef{"lat_p50_ms", "ms", "lower"}, 0.25},
	{metricDef{"cpu_ms_per_query", "ms", "lower"}, 0.25},
	{metricDef{"alloc_kb_per_query", "KB", "lower"}, 0.15},
	{metricDef{"peak_rss_mb", "MB", "lower"}, 0.25},
}

// e2eDefs lists the end-to-end metrics without their bounds.
func e2eDefs() []metricDef {
	defs := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		defs[i] = d.metricDef
	}
	return defs
}

// perLayer is one row per layer metric; the prefix is the repo's module name.
// bench/README.md says how each is obtained and which end-to-end metric it
// should move on which workload.
var perLayer = []metricDef{
	{"load.lat_p95_ms", "ms", "lower"},
	{"load.lat_p99_ms", "ms", "lower"},
	{"load.drift_ratio", "ratio", "lower"},

	{"server.wait_ms_mean", "ms", "lower"},
	{"server.exec_ms_mean", "ms", "lower"},
	{"server.reused_frac", "fraction", "higher"},
	{"server.full_hit_frac", "fraction", "higher"},
	{"server.blocks_per_query", "count", "lower"},
	{"server.raw_mb_per_query", "MB", "lower"},

	{"sched.edge_pairs_per_insert", "count", "lower"},
	{"sched.reranks_per_insert", "count", "lower"},
	{"sched.insert_us_d16", "us", "lower"},
	{"sched.insert_us_d1k", "us", "lower"},
	{"sched.dequeue_us_d1k", "us", "lower"},
	{"sched.insert_allocs_d1k", "count", "lower"},

	{"spatial.reachable_per_live", "ratio", "lower"},
	{"spatial.churn_us_per_op", "us", "lower"},
	{"spatial.churn_allocs_per_op", "count", "lower"},

	{"datastore.hit_rate", "fraction", "higher"},
	{"datastore.evictions_per_insert", "count", "lower"},
	{"datastore.reused_mb_per_query", "MB", "higher"},
	{"datastore.lookup_us_n100", "us", "lower"},
	{"datastore.lookup_us_n1k", "us", "lower"},
	{"datastore.lookup_allocs_n1k", "count", "lower"},
	{"datastore.reuse_ms_mean", "ms", "lower"},

	{"pagespace.hit_rate", "fraction", "higher"},
	{"pagespace.evictions_per_query", "count", "lower"},
	{"pagespace.inflight_wait_frac", "fraction", "lower"},
	{"pagespace.hit_us", "us", "lower"},
	{"pagespace.hit_allocs", "count", "lower"},
	{"pagespace.io_ms_mean", "ms", "lower"},

	{"disk.reads_per_query", "count", "lower"},
	{"disk.seq_frac", "fraction", "higher"},
	{"disk.busy_ms_per_query", "ms", "lower"},
	{"disk.merged_frac", "fraction", "higher"},
	{"disk.disk_ms_mean", "ms", "lower"},

	{"vm.compute_ms_mean", "ms", "lower"},
	{"vm.average_mb_s", "MB/s", "higher"},
	{"vm.subsample_mb_s", "MB/s", "higher"},
	{"vm.project_mb_s", "MB/s", "higher"},
	{"vm.oracle_mismatches", "count", "lower"},

	{"netproto.wire_ms_p50", "ms", "lower"},
	{"netproto.rtt_us_ping", "us", "lower"},
	{"netproto.rtt_ms_768k", "ms", "lower"},
	{"netproto.alloc_kb_per_rt_768k", "KB", "lower"},
	{"netproto.bytes_per_query", "B", "lower"},

	{"cluster.hop_ms_p50", "ms", "lower"},
	{"cluster.spill_frac", "fraction", "lower"},
	{"cluster.backend_imbalance", "ratio", "lower"},
	{"cluster.errors", "count", "lower"},

	{"sim.vsec_per_wall_s", "ratio", "higher"},
	{"sim.trimmed_resp_s", "s", "lower"},
	{"sim.makespan_s_mean", "s", "lower"},

	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.spans_per_query", "count", "lower"},
	{"trace.dropped", "count", "lower"},

	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms_total", "ms", "lower"},
	{"go.heap_end_mb", "MB", "lower"},
	{"go.goroutines_end", "count", "lower"},
	{"go.mallocs_per_query", "count", "lower"},
}

// counters are the cumulative counts the layers already export through
// System.Stats, flattened so windows can be subtracted and backends summed.
type counters [numCounters]int64

const (
	cCompleted = iota
	cFullHits
	cBlocks
	cRawBytes
	cReusedOut
	cComputedOut
	cInserted
	cEdgePairs
	cReRanks
	cDSInserts
	cDSEvictions
	cDSLookups
	cDSLookupHits
	cDSReusedBytes
	cPSHits
	cPSMisses
	cPSInflight
	cPSEvictions
	cDiskReads
	cDiskSeq
	cDiskMerged
	cDiskBusyNS
	numCounters
)

// readCounters sums the counters of the given systems (one in-process
// system, or every backend of a cluster).
func readCounters(systems ...*mqsched.System) counters {
	var c counters
	for _, sys := range systems {
		st := sys.Stats()
		c.add(counters{
			cCompleted:     st.Server.Completed,
			cFullHits:      st.Server.FullHits,
			cBlocks:        st.Server.Blocks,
			cRawBytes:      st.Server.RawBytes,
			cReusedOut:     st.Server.ReusedOutputBytes,
			cComputedOut:   st.Server.ComputedOutputBytes,
			cInserted:      st.Graph.Inserted,
			cEdgePairs:     st.Graph.EdgePairs,
			cReRanks:       st.Graph.ReRanks,
			cDSInserts:     st.DataStore.Inserts,
			cDSEvictions:   st.DataStore.Evictions,
			cDSLookups:     st.DataStore.Lookups,
			cDSLookupHits:  st.DataStore.LookupHits,
			cDSReusedBytes: st.DataStore.ReusedBytes,
			cPSHits:        st.PageSpace.Hits,
			cPSMisses:      st.PageSpace.Misses,
			cPSInflight:    st.PageSpace.InflightWaits,
			cPSEvictions:   st.PageSpace.Evictions,
			cDiskReads:     st.Disk.Reads,
			cDiskSeq:       st.Disk.SeqReads,
			cDiskMerged:    st.Disk.MergedReads,
			cDiskBusyNS:    int64(st.Disk.ServiceSum),
		})
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// counterMetrics turns a window's counter deltas into the C-sourced layer
// metrics.
func counterMetrics(c counters, out map[string]float64) {
	f := func(i int) float64 { return float64(c[i]) }
	const mb = 1 << 20
	q := f(cCompleted)
	out["server.reused_frac"] = ratio(f(cReusedOut), f(cReusedOut)+f(cComputedOut))
	out["server.full_hit_frac"] = ratio(f(cFullHits), q)
	out["server.blocks_per_query"] = ratio(f(cBlocks), q)
	out["server.raw_mb_per_query"] = ratio(f(cRawBytes)/mb, q)
	out["sched.edge_pairs_per_insert"] = ratio(f(cEdgePairs), f(cInserted))
	out["sched.reranks_per_insert"] = ratio(f(cReRanks), f(cInserted))
	out["datastore.hit_rate"] = ratio(f(cDSLookupHits), f(cDSLookups))
	out["datastore.evictions_per_insert"] = ratio(f(cDSEvictions), f(cDSInserts))
	out["datastore.reused_mb_per_query"] = ratio(f(cDSReusedBytes)/mb, q)
	reads := f(cPSHits) + f(cPSMisses) + f(cPSInflight)
	out["pagespace.hit_rate"] = ratio(f(cPSHits), reads)
	out["pagespace.evictions_per_query"] = ratio(f(cPSEvictions), q)
	out["pagespace.inflight_wait_frac"] = ratio(f(cPSInflight), reads)
	out["disk.reads_per_query"] = ratio(f(cDiskReads), q)
	out["disk.seq_frac"] = ratio(f(cDiskSeq), f(cDiskReads))
	out["disk.busy_ms_per_query"] = ratio(f(cDiskBusyNS)/1e6, q)
	out["disk.merged_frac"] = ratio(f(cDiskMerged), f(cDiskReads))
}

// routerMetrics turns a window's router counter deltas into the cluster
// layer's C-sourced metrics. Imbalance is the busiest backend's share of the
// routed queries over the fair share (1.0 is perfectly even).
func routerMetrics(before, after cluster.Stats, out map[string]float64) {
	routed := float64(after.Routed - before.Routed)
	out["cluster.spill_frac"] = ratio(float64(after.Spilled-before.Spilled), routed)
	out["cluster.errors"] = float64(after.Errors - before.Errors)
	var busiest float64
	for i, b := range after.Backends {
		busiest = max(busiest, float64(b.Routed-before.Backends[i].Routed))
	}
	out["cluster.backend_imbalance"] = ratio(busiest*float64(len(after.Backends)), routed)
}
