package mqsched_test

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/cluster"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/experiment"
	"mqsched/internal/load"
	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
	"mqsched/internal/vm"
)

// view ties one Stats field to the registry series showing the same counter.
// A field spanning a label names only the labels it fixes (two values for
// one key are alternatives) and is compared with the sum over the matching
// series. A row with no series must say why.
type view struct {
	field  string
	series string
	labels []metrics.Label
	// part selects a histogram's "count" or "sum" instead of a value.
	part string
	// perUnit converts the series' unit into the field's (seconds shown for
	// integer nanoseconds); 0 means 1.
	perUnit  float64
	noSeries string
	// batchOnly marks a series published only under the batch strategy;
	// where it is absent the field must be 0.
	batchOnly bool
	mustCount bool // the simulated run must move this counter off zero
}

func lbl(k string, vs ...string) []metrics.Label {
	var out []metrics.Label
	for _, v := range vs {
		out = append(out, metrics.L(k, v))
	}
	return out
}

// systemViews covers every field of mqsched.Stats.
var systemViews = []view{
	{field: "Server.Submitted", series: "mqsched_server_submitted_total", mustCount: true},
	{field: "Server.Completed", series: "mqsched_server_completed_total", mustCount: true},
	{field: "Server.FullHits", series: "mqsched_server_full_hits_total"},
	{field: "Server.Projections", series: "mqsched_server_projections_total", mustCount: true},
	{field: "Server.SharedOutputs", series: "mqsched_server_shared_outputs_total", mustCount: true},
	{field: "Server.Blocks", series: "mqsched_server_blocks_total"},
	{field: "Server.Canceled", series: "mqsched_server_canceled_total"},
	{field: "Server.RawBytes", series: "mqsched_server_raw_bytes_total", mustCount: true},
	{field: "Server.ReusedOutputBytes", series: "mqsched_server_reused_output_bytes_total", mustCount: true},
	{field: "Server.ComputedOutputBytes", series: "mqsched_server_computed_output_bytes_total", mustCount: true},
	{field: "Server.BatchGroups", noSeries: "the share of mqsched_batch_group_size above its first bucket; no series of its own"},
	{field: "Server.BatchFanouts", series: "mqsched_batch_fanout_total", batchOnly: true, mustCount: true},

	{field: "Disk.Reads", series: "mqsched_disk_reads_total", mustCount: true},
	{field: "Disk.SeqReads", series: "mqsched_disk_seq_reads_total", mustCount: true},
	{field: "Disk.BytesRead", series: "mqsched_disk_read_bytes_total", mustCount: true},
	{field: "Disk.ServiceSum", series: "mqsched_disk_busy_seconds_total", perUnit: float64(time.Second), mustCount: true},
	{field: "Disk.MergedReads", series: "mqsched_disk_merged_reads_total", mustCount: true},
	{field: "Disk.Batches", series: "mqsched_disk_batch_pages", part: "count", mustCount: true},
	{field: "Disk.BatchPagesSum", series: "mqsched_disk_batch_pages", part: "sum", mustCount: true},
	{field: "Disk.MaxReorder", noSeries: "a running maximum; mqsched_disk_reorder_distance is the last batch's value, a different quantity"},

	{field: "PageSpace.Hits", series: "mqsched_pagespace_hits_total", mustCount: true},
	{field: "PageSpace.Misses", series: "mqsched_pagespace_misses_total", mustCount: true},
	{field: "PageSpace.InflightWaits", series: "mqsched_pagespace_dedup_coalesced_total"},
	{field: "PageSpace.Evictions", series: "mqsched_pagespace_evictions_total", mustCount: true},
	{field: "PageSpace.BytesRead", series: "mqsched_pagespace_read_bytes_total", mustCount: true},
	{field: "PageSpace.Prefetches", series: "mqsched_pagespace_prefetches_total"},
	{field: "PageSpace.PrefetchDrops", series: "mqsched_pagespace_prefetch_drops_total"},

	{field: "DataStore.Inserts", series: "mqsched_datastore_inserts_total", mustCount: true},
	{field: "DataStore.Rejected", series: "mqsched_datastore_rejected_total"},
	{field: "DataStore.Evictions", series: "mqsched_datastore_evictions_total", mustCount: true},
	{field: "DataStore.Lookups", series: "mqsched_datastore_lookups_total", mustCount: true},
	// LookupHits is the full and partial outcomes; the miss series is
	// checked through Lookups.
	{field: "DataStore.LookupHits", series: "mqsched_datastore_lookups_total", labels: lbl("result", "full", "partial"), mustCount: true},
	{field: "DataStore.BytesStored", series: "mqsched_datastore_resident_bytes", mustCount: true},
	{field: "DataStore.ReusedBytes", series: "mqsched_datastore_reused_bytes_total", mustCount: true},
	{field: "DataStore.AdmitRejects", series: "mqsched_datastore_policy_admit_rejects_total", mustCount: true},
	// Simulated outputs carry no bytes, so nothing is recycled there; the
	// real arm's wire replies are released after they are written.
	{field: "DataStore.RecycledBuffers", series: "mqsched_datastore_recycled_buffers_total"},
	{field: "DataStore.FreeBytes", series: "mqsched_datastore_free_bytes"},

	{field: "Graph.Inserted", series: "mqsched_sched_transitions_total", labels: lbl("state", "waiting"), mustCount: true},
	{field: "Graph.Dequeued", series: "mqsched_sched_transitions_total", labels: lbl("state", "executing"), mustCount: true},
	{field: "Graph.Removed", series: "mqsched_sched_transitions_total", labels: lbl("state", "swapped_out"), mustCount: true},
	{field: "Graph.EdgePairs", series: "mqsched_sched_edges_total", mustCount: true},
	{field: "Graph.ReRanks", series: "mqsched_sched_reranks_total", mustCount: true},
}

// routerViews covers cluster.Stats; backendViews covers each BackendStats,
// compared with the series labelled backend=Addr.
var (
	routerViews = []view{
		{field: "Routed", series: "mqrouter_routed_total"},
		{field: "Spilled", series: "mqrouter_spills_total"},
		{field: "Errors", series: "mqrouter_backend_errors_total"},
		{field: "Backends", noSeries: "a slice; its elements are checked by backendViews"},
	}
	backendViews = []view{
		{field: "Addr", noSeries: "the backend label of every row below"},
		{field: "Healthy", series: "mqrouter_backend_healthy"},
		{field: "Inflight", series: "mqrouter_backend_inflight"},
		{field: "Routed", series: "mqrouter_routed_total"},
		{field: "Errors", series: "mqrouter_backend_errors_total"},
		{field: "Markdowns", series: "mqrouter_markdowns_total"},
		{field: "Markups", series: "mqrouter_markups_total"},
	}
)

// leaves lists v's fields by dotted path, descending into nested structs
// (but not into slices: BackendStats has its own table).
func leaves(v reflect.Value, prefix string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			leaves(f, name+".", out)
		} else {
			out[name] = f
		}
	}
}

// matches reports whether a series carries, for every wanted key, one of the
// values wanted for that key.
func matches(have, want []metrics.Label) bool {
	for _, w := range want {
		ok := false
		for _, alt := range want {
			for _, h := range have {
				ok = ok || (alt.Key == w.Key && h == alt)
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// seriesValue sums the selected part of every matching series of the family.
func seriesValue(t *testing.T, snap metrics.Snapshot, v view, extra ...metrics.Label) float64 {
	t.Helper()
	want := append(append([]metrics.Label(nil), v.labels...), extra...)
	var sum float64
	found := false
	for _, fam := range snap.Families {
		if fam.Name != v.series {
			continue
		}
		for _, ser := range fam.Series {
			if !matches(ser.Labels, want) {
				continue
			}
			found = true
			switch v.part {
			case "count":
				sum += float64(ser.Count)
			case "sum":
				sum += ser.Sum
			default:
				sum += ser.Value
			}
		}
	}
	if !found && !v.batchOnly {
		t.Errorf("%s: no series %s%v in the registry", v.field, v.series, want)
	}
	return sum
}

// checkViews asserts that stats and snap agree on every row, that every
// field of stats has a row, and (when moved is set) that the marked
// counters left zero.
func checkViews(t *testing.T, stats any, views []view, snap metrics.Snapshot, moved bool, extra ...metrics.Label) {
	t.Helper()
	fields := map[string]reflect.Value{}
	leaves(reflect.ValueOf(stats), "", fields)
	rows := map[string]bool{}
	for _, v := range views {
		rows[v.field] = true
		f, ok := fields[v.field]
		if !ok {
			t.Errorf("row %s names no field of %T", v.field, stats)
			continue
		}
		if v.series == "" {
			if v.noSeries == "" {
				t.Errorf("%s: a row without a series must say why", v.field)
			}
			continue
		}
		var got float64
		switch f.Kind() {
		case reflect.Bool:
			if f.Bool() {
				got = 1
			}
		default:
			got = float64(f.Int())
		}
		want := seriesValue(t, snap, v, extra...)
		if v.perUnit != 0 {
			want = math.Round(want * v.perUnit)
		}
		if got != want {
			t.Errorf("%s = %v, but %s%v shows %v", v.field, got, v.series, v.labels, want)
		}
		if moved && v.mustCount && got == 0 {
			t.Errorf("%s stayed 0: the run does not exercise it", v.field)
		}
	}
	for name := range fields {
		if !rows[name] {
			t.Errorf("%T.%s has no row: add its series (or say why it has none)", stats, name)
		}
	}
}

// TestStatsAreRegistryViews is the one check that Stats() and the registry
// are two views of the same counters: every Stats field equals its series,
// and a field added to one side only fails here.
func TestStatsAreRegistryViews(t *testing.T) {
	t.Run("simulated", func(t *testing.T) {
		// Both operators, a data store small enough to evict, elevator I/O
		// (MergedReads, Batches), the batch executor (BatchFanouts) and the
		// cost cache (AdmitRejects).
		table := mqsched.NewSlideTable(
			mqsched.Slide{Name: "slide1", Width: 8192, Height: 8192},
			mqsched.Slide{Name: "slide2", Width: 8192, Height: 8192},
			mqsched.Slide{Name: "slide3", Width: 8192, Height: 8192},
		)
		sys, err := mqsched.New(mqsched.Config{
			Policy:   "batch",
			DSPolicy: datastore.PolicyCost,
			DSBudget: 16 << 20,
			PSBudget: 4 << 20,
			IOSched:  disk.SchedElevator,
		}, table)
		if err != nil {
			t.Fatal(err)
		}
		// Six clients per operator, the averaging ones numbered after the
		// others.
		var items []load.Item
		for k, op := range []vm.Op{vm.Subsample, vm.Average} {
			for _, it := range load.Clients(load.GenConfig{Pattern: load.Browse, Users: 6, Queries: 12, Op: op, Seed: 3}, table) {
				it.Seq, it.User = len(items), it.User+6*k
				items = append(items, it)
			}
		}
		if _, err := experiment.Replay(sys, items, load.Closed(0)); err != nil {
			t.Fatal(err)
		}
		checkViews(t, sys.Stats(), systemViews, sys.Metrics().Snapshot(), true)
	})

	t.Run("real", func(t *testing.T) {
		// Four query threads per backend counting concurrently (the race job
		// runs this), behind a router whose own Stats are checked too.
		h, err := cluster.StartHarness(cluster.HarnessConfig{
			Backends: 2,
			Slides:   []mqsched.Slide{{Name: "s1", Width: 16384, Height: 16384}},
			System:   mqsched.Config{Threads: 4, TimeScale: 1e-9, DSBudget: 1 << 20},
			Router:   cluster.Config{SpillDepth: 1, HealthInterval: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		done := make(chan error, 4)
		for w := int64(0); w < 4; w++ {
			go func() {
				c := netproto.NewClient(h.Addr, 0)
				defer c.Close()
				for i := int64(0); i < 12; i++ {
					x, y := (i%4)*2048+w*256, (i/4)*4096
					resp, err := c.Do(&netproto.Request{Slide: "s1", X0: x, Y0: y, X1: x + 1024, Y1: y + 1024,
						Zoom: 2, Op: []string{"subsample", "average"}[i%2], OmitPixels: true})
					if err == nil && resp.Err != "" {
						err = errors.New(resp.Err)
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
		}
		for w := 0; w < 4; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for _, sys := range h.Systems {
			checkViews(t, sys.Stats(), systemViews, sys.Metrics().Snapshot(), false)
		}
		st := h.Router.Stats()
		snap := h.Router.Registry().Snapshot()
		if st.Routed != 48 {
			t.Errorf("router routed %d queries, sent 48", st.Routed)
		}
		checkViews(t, st, routerViews, snap, false)
		for _, b := range st.Backends {
			checkViews(t, b, backendViews, snap, false, metrics.L("backend", b.Addr))
		}
	})
}
