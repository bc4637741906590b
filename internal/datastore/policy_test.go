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

func TestGhostList(t *testing.T) {
	g := newGhostList(2)
	g.add("a", 1)
	g.add("b", 2)
	if hits, ok := g.take("a"); !ok || hits != 1 {
		t.Fatalf("take(a) = %d, %v", hits, ok)
	}
	if _, ok := g.take("a"); ok {
		t.Fatal("take(a) twice should miss")
	}
	// Refreshing an existing key keeps the larger hit count.
	g.add("b", 1)
	if hits, _ := g.take("b"); hits != 2 {
		t.Fatalf("refreshed b = %d, want 2", hits)
	}
	// FIFO overflow evicts the oldest key.
	g.add("c", 1)
	g.add("d", 1)
	g.add("e", 1)
	if _, ok := g.take("c"); ok {
		t.Fatal("c should have been displaced by the FIFO bound")
	}
	if g.len() != 2 {
		t.Fatalf("len = %d, want 2", g.len())
	}
}

// TestGhostListTakeFreesItsSlot: a taken ghost leaves nothing behind in the
// FIFO. Add/take churn keeps the list empty, and a ghost re-added after a
// take queues behind the ghosts added before it.
func TestGhostListTakeFreesItsSlot(t *testing.T) {
	g := newGhostList(2)
	g.add("a", 1)
	g.add("b", 1)
	g.take("a")
	g.add("a", 1)
	g.add("c", 1) // over cap: b is the oldest live ghost
	for key, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if _, ok := g.m[key]; ok != want {
			t.Errorf("after add a, add b, take a, add a, add c: ghost %s kept = %v, want %v", key, ok, want)
		}
	}

	g = newGhostList(4)
	for i := 0; i < 100_000; i++ {
		g.add("k", 1)
		g.take("k")
	}
	if g.len() != 0 || g.order.Len() != 0 {
		t.Fatalf("after add/take churn: %d live ghosts, %d FIFO slots; want 0 and 0", g.len(), g.order.Len())
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
// displaced even though the expensive one is older.
func TestCostEvictionPicksLowestBenefit(t *testing.T) {
	m, app := costRig(2*100*100, Options{})
	exp := m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 10})
	cheap := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: 0.001})
	if exp == nil || cheap == nil {
		t.Fatal("warm-up inserts failed")
	}
	e3 := m.InsertWith(blob(app, geom.R(200, 0, 300, 100)), InsertInfo{CostSeconds: 10})
	if e3 == nil {
		t.Fatal("high-cost insert should be admitted")
	}
	if !cheap.Evicted() || exp.Evicted() {
		t.Fatalf("evicted the wrong entry: cheap=%v expensive=%v", cheap.Evicted(), exp.Evicted())
	}
	// An LRU store would have evicted the oldest entry (the expensive one).
}

// TestAdmissionRejectAndGhostReadmit: a newcomer whose benefit is strictly
// below the would-be victim's is refused and ghost-tracked; reproducing the
// same result raises its expected reuse until it wins the comparison.
func TestAdmissionRejectAndGhostReadmit(t *testing.T) {
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
	// The reproduced result carries one ghost hit: (1+1)*0.5 now ties the
	// resident's (0+1)*1.0, and ties admit.
	e := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: 0.5})
	if e == nil {
		t.Fatal("reproduced result should be admitted via its ghost history")
	}
	st = m.Stats()
	if st.GhostHits != 1 || st.Evictions != 1 {
		t.Fatalf("stats after readmit = %+v", st)
	}
	if !resident.Evicted() {
		t.Fatal("resident should have been displaced by the readmitted result")
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

// TestEvictedPredicateGhostTracked: an entry displaced under pressure leaves
// its reuse history in the ghost list, visible as a ghost hit when the same
// predicate is reproduced.
func TestEvictedPredicateGhostTracked(t *testing.T) {
	m, app := costRig(100*100, Options{})
	m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 1})
	// Displace it with an equally costly result (tie admits).
	if e := m.InsertWith(blob(app, geom.R(100, 0, 200, 100)), InsertInfo{CostSeconds: 1}); e == nil {
		t.Fatal("tie should admit")
	}
	// Reproduce the evicted predicate: its ghost entry counts as a hit.
	if e := m.InsertWith(blob(app, geom.R(0, 0, 100, 100)), InsertInfo{CostSeconds: 1}); e == nil {
		t.Fatal("reproduced result should be admitted")
	}
	if st := m.Stats(); st.GhostHits != 1 {
		t.Fatalf("GhostHits = %d, want 1", st.GhostHits)
	}
}
