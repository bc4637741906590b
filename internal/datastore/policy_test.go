package datastore

import (
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/testapp"
)

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"", PolicyLRU},
		{"lru", PolicyLRU},
		{"cost", PolicyCost},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Fatal("ParsePolicy(mru) should fail")
	}
	if PolicyLRU.String() != "lru" || PolicyCost.String() != "cost" {
		t.Fatalf("String() = %q, %q", PolicyLRU, PolicyCost)
	}
}

// costRig is a cost-policy manager over the shared test dataset.
func costRig(budget int64, opts Options) (*Manager, *testapp.App) {
	l := dataset.New("d", 1000, 1000, 1, 100)
	app := testapp.New(dataset.NewTable(l))
	opts.Budget = budget
	opts.Policy = PolicyCost
	return New(app, opts), app
}

// TestCostEvictionPicksLowestBenefit checks that eviction under PolicyCost is
// value-driven, not recency-driven: the entry that is cheap to recompute is
// displaced even though the expensive one is older. A result reported at no
// (or a negative) cost has no benefit at all.
func TestCostEvictionPicksLowestBenefit(t *testing.T) {
	for _, cheapCost := range []float64{0.001, 0, -1} {
		m, app := costRig(2*100*100, Options{})
		exp := m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 10})
		cheap := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: cheapCost})
		if exp == nil || cheap == nil {
			t.Fatalf("cheap cost %v: warm-up inserts failed", cheapCost)
		}
		e3 := m.InsertWith(blob(app, geom.R(200, 0, 300, 100)), InsertInfo{CostSeconds: 10})
		if e3 == nil {
			t.Fatalf("cheap cost %v: high-cost insert should be admitted", cheapCost)
		}
		if !cheap.Evicted() || exp.Evicted() {
			t.Fatalf("cheap cost %v: evicted the wrong entry: cheap=%v expensive=%v", cheapCost, cheap.Evicted(), exp.Evicted())
		}
	}
	// An LRU store would have evicted the oldest entry (the expensive one).
}

// TestAdmissionRejectsLowerBenefit: a newcomer whose benefit is strictly
// below the would-be victim's is refused, and the resident stays.
func TestAdmissionRejectsLowerBenefit(t *testing.T) {
	m, app := costRig(100*100, Options{})
	resident := m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 1})
	if resident == nil {
		t.Fatal("first insert failed")
	}
	newcomer := blob(app, geom.R(100, 0, 200, 100))
	if e := m.InsertWith(newcomer, InsertInfo{CostSeconds: 0.5}); e != nil {
		t.Fatal("half-cost newcomer should lose the admission comparison")
	}
	st := m.Stats()
	if st.AdmitRejects != 1 || st.Evictions != 0 {
		t.Fatalf("stats after reject = %+v", st)
	}
	if resident.Evicted() {
		t.Fatal("resident should survive a rejected admission")
	}
}

// TestBatchParentInsertBypassesAdmission: a batch group's parent aggregate
// is stored even when its benefit alone would lose the comparison — the
// group's members are about to project from it.
func TestBatchParentInsertBypassesAdmission(t *testing.T) {
	m, app := costRig(100*100, Options{})
	m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 1})
	e := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: 0.001, BatchParent: true})
	if e == nil {
		t.Fatal("batch parent insert should bypass admission control")
	}
	if e.Hits() < 2 {
		t.Fatalf("batch parent entry starts with hits=%d, want >= 2", e.Hits())
	}
}

// TestCostPolicyPinnedBudgetRejects mirrors the LRU pinned-budget behaviour:
// when nothing evictable can cover the shortfall the insert is rejected, not
// admitted over budget, and the OnEvict hook never fires.
func TestCostPolicyPinnedBudgetRejects(t *testing.T) {
	m, app := costRig(100*100, Options{})
	m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 1})
	cands := m.Lookup(testapp.Meta{DS: "d", Rect: geom.R(0, 0, 100, 100)}, 0)
	if len(cands) != 1 {
		t.Fatalf("found %d candidates", len(cands))
	}
	hookFired := false
	m.OnEvict = func(*Entry) { hookFired = true }
	if e := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: 100}); e != nil {
		t.Fatal("insert into a fully pinned budget should fail")
	}
	if hookFired {
		t.Fatal("OnEvict fired without an eviction")
	}
	if st := m.Stats(); st.Rejected != 1 || st.AdmitRejects != 0 {
		t.Fatalf("stats = %+v", st)
	}
	cands[0].Entry.Unpin()
}

// TestMarkProjectedFeedsValueModel: projections raise an entry's priority so
// hot entries outlive idle ones of equal cost.
func TestMarkProjectedFeedsValueModel(t *testing.T) {
	m, app := costRig(2*100*100, Options{})
	hot := m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 1})
	idle := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: 1})
	hot.MarkProjected()
	hot.MarkProjected()
	if hot.Hits() != 2 {
		t.Fatalf("hits = %d, want 2", hot.Hits())
	}
	if st := m.Stats(); st.ReusedBytes != 2*100*100 {
		t.Fatalf("ReusedBytes = %d, want %d", st.ReusedBytes, 2*100*100)
	}
	if e := m.InsertWith(blob(app, geom.R(200, 0, 300, 100)), InsertInfo{CostSeconds: 1}); e == nil {
		t.Fatal("insert failed")
	}
	if !idle.Evicted() || hot.Evicted() {
		t.Fatalf("wrong victim: idle=%v hot=%v", idle.Evicted(), hot.Evicted())
	}
}
