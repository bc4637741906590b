package experiment

import (
	"math"
	"testing"

	"mqsched"
	"mqsched/internal/trace"
	"mqsched/internal/traceviz"
	"mqsched/internal/vm"
)

// TestRunWorkloadSpanCoverage runs a small traced configuration end to end
// and checks that every subsystem contributes spans to the same query's
// tree — the wiring from server through sched, datastore, pagespace, and
// disk.
func TestRunWorkloadSpanCoverage(t *testing.T) {
	m, err := Run(Config{
		Policy:           "cf",
		Op:               vm.Subsample,
		Clients:          2,
		QueriesPerClient: 2,
		Seed:             1,
		Config:           mqsched.Config{TraceSpans: true, TraceCapacity: 1 << 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Spans == nil {
		t.Fatal("Metrics.Spans is nil with TraceSpans set")
	}
	spans := m.Spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	subsystems := map[int64]map[string]bool{}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if subsystems[s.QueryID] == nil {
			subsystems[s.QueryID] = map[string]bool{}
		}
		subsystems[s.QueryID][s.Subsystem] = true
		ids[s.ID] = true
	}
	want := []string{"server", "sched", "datastore", "pagespace", "disk"}
	covered := 0
	for _, subs := range subsystems {
		all := true
		for _, w := range want {
			if !subs[w] {
				all = false
				break
			}
		}
		if all {
			covered++
		}
	}
	if covered == 0 {
		t.Fatalf("no query has spans from all of %v; got per-query coverage %v", want, subsystems)
	}

	// Every non-root span's parent must be a retained span (nothing was
	// dropped at this capacity), and it must belong to the same query.
	byID := map[uint64]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s/%s) has unknown parent %d", s.ID, s.Subsystem, s.Op, s.Parent)
		}
		if p.QueryID != s.QueryID {
			t.Fatalf("span %d query %d has parent %d of query %d", s.ID, s.QueryID, p.ID, p.QueryID)
		}
		// The read path nests by kind: page-space reads hang under the
		// compute step (or under the batch read they were deferred from),
		// disk reads under the page-space read that issued them.
		switch s.Subsystem {
		case trace.SubPagespace:
			if !(p.Subsystem == trace.SubServer && p.Op == trace.OpCompute) &&
				!(p.Subsystem == trace.SubPagespace && p.Op == trace.OpReadBatch) {
				t.Fatalf("pagespace/%s span %d hangs under %s/%s", s.Op, s.ID, p.Subsystem, p.Op)
			}
		case trace.SubDisk:
			if p.Subsystem != trace.SubPagespace {
				t.Fatalf("disk/%s span %d hangs under %s/%s", s.Op, s.ID, p.Subsystem, p.Op)
			}
		}
	}

	// The per-strategy view reads every query back whole, its phases
	// accounting for its response.
	bd := traceviz.Breakdown(traceviz.LoadSpans("cf", spans, nil))
	if len(bd) != 1 || bd[0].Strategy != m.Policy || bd[0].Queries != m.Queries || bd[0].Truncated != 0 {
		t.Fatalf("Breakdown = %+v, want one %s strategy covering %d whole queries", bd, m.Policy, m.Queries)
	}
	p := bd[0].MeanPhases
	if sum := p.Wait + p.IO + p.Compute + p.Reuse + p.Batch + p.Fanout + p.Other; math.Abs(sum-bd[0].MeanResp) > 1e-9 || p.IO <= 0 {
		t.Errorf("mean phases %+v do not account for mean response %v", p, bd[0].MeanResp)
	}
}
