package pagespace

import (
	"math/rand"
	"testing"

	"mqsched/internal/rt"
)

// put enters a fresh entry for k unless k is present, as register does.
func put(tb *pageTable, k uint64) *pageEntry {
	e, i := tb.find(k)
	if e == nil {
		e = &pageEntry{key: k}
		tb.insertAt(i, e)
	}
	return e
}

// checkTable compares tb with want: the same keys, each reachable by its
// probe from its home slot, and n the number of occupied slots.
func checkTable(t *testing.T, step int, tb *pageTable, want map[uint64]*pageEntry) {
	t.Helper()
	occupied := 0
	for i, s := range tb.slots {
		if s.e == nil {
			continue
		}
		occupied++
		if s.e.key != s.key {
			t.Fatalf("step %d: slot %d holds key %#x under %#x", step, i, s.e.key, s.key)
		}
		if want[s.key] != s.e {
			t.Fatalf("step %d: slot %d holds key %#x, which the map lacks", step, i, s.key)
		}
	}
	if occupied != tb.n || tb.n != len(want) {
		t.Fatalf("step %d: %d slots occupied, n = %d, the map holds %d", step, occupied, tb.n, len(want))
	}
	for k, e := range want {
		if got := tb.get(k); got != e {
			t.Fatalf("step %d: get(%#x) = %p, want %p", step, k, got, e)
		}
	}
}

// TestPageTableMatchesMap runs random puts, gets and deletes against a Go
// map. The keys are drawn from a few datasets' low pages, as the page space
// makes them, and the universe is large enough that the table doubles more
// than once and small enough that deletes hit.
func TestPageTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := newPageTable()
	want := map[uint64]*pageEntry{}
	for step := 0; step < 20000; step++ {
		k := uint64(rng.Intn(3))<<32 | uint64(rng.Intn(300))
		switch rng.Intn(3) {
		case 0, 1:
			e := put(&tb, k)
			if w, ok := want[k]; ok && w != e {
				t.Fatalf("step %d: put(%#x) replaced a present entry", step, k)
			}
			want[k] = e
		default:
			if _, ok := want[k]; ok {
				tb.delete(k)
				delete(want, k)
			}
		}
		if step%97 == 0 {
			checkTable(t, step, &tb, want)
		}
	}
	checkTable(t, -1, &tb, want)
	if len(tb.slots) == minPageSlots {
		t.Fatalf("the table never grew: %d slots", len(tb.slots))
	}
}

// keysHomedAt returns n keys whose home slot in tb is slot.
func keysHomedAt(tb *pageTable, slot, n int) []uint64 {
	var ks []uint64
	for k := uint64(0); len(ks) < n; k++ {
		if tb.home(k) == slot {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestPageTableWrapAndShift builds probe runs that wrap past the end of the
// slot array and deletes keys inside them: every key left must stay
// reachable, and a key may be shifted back only onto its own probe path.
func TestPageTableWrapAndShift(t *testing.T) {
	tb := newPageTable()
	last := len(tb.slots) - 1
	// Three keys homed at the last slot fill it and wrap to slots 0 and 1;
	// a key homed at 0 then sits at 2 and one homed at 1 at 3.
	atLast := keysHomedAt(&tb, last, 3)
	at0 := keysHomedAt(&tb, 0, 1)[0]
	at1 := keysHomedAt(&tb, 1, 1)[0]
	want := map[uint64]*pageEntry{}
	for _, k := range append(append([]uint64{}, atLast...), at0, at1) {
		want[k] = put(&tb, k)
	}
	for k, slot := range map[uint64]int{atLast[0]: last, atLast[1]: 0, atLast[2]: 1, at0: 2, at1: 3} {
		if tb.slots[slot].key != k || tb.slots[slot].e == nil {
			t.Fatalf("key %#x is not in slot %d", k, slot)
		}
	}
	checkTable(t, 0, &tb, want)

	// Deleting the run's head (the last slot) pulls each key back one
	// slot across the wrap: each one's path starts at or before the gap.
	tb.delete(atLast[0])
	delete(want, atLast[0])
	checkTable(t, 1, &tb, want)
	for k, slot := range map[uint64]int{atLast[1]: last, atLast[2]: 0, at0: 1, at1: 2} {
		if tb.slots[slot].key != k {
			t.Fatalf("after the first delete, key %#x is not in slot %d", k, slot)
		}
	}

	// Deleting the key at slot 0 leaves a gap that at0 (home 0, now at 1)
	// may fill and at1 (home 1, now at 2) may follow; a key homed past
	// the gap must never move before its home.
	tb.delete(atLast[2])
	delete(want, atLast[2])
	checkTable(t, 2, &tb, want)
	if tb.slots[0].key != at0 || tb.slots[1].key != at1 {
		t.Fatalf("after the second delete, slots 0 and 1 hold %#x and %#x, want %#x and %#x",
			tb.slots[0].key, tb.slots[1].key, at0, at1)
	}
	if tb.slots[2].e != nil {
		t.Fatal("slot 2 is still taken after the run shrank")
	}

	// A key homed at 0 whose run crosses a deleted slot before its home
	// stays put: delete the key at the last slot, whose gap lies before
	// the home of everything after it.
	tb.delete(atLast[1])
	delete(want, atLast[1])
	checkTable(t, 3, &tb, want)
	if tb.slots[0].key != at0 || tb.slots[1].key != at1 || tb.slots[last].e != nil {
		t.Fatal("a key was shifted back past its home slot")
	}
}

// TestMissChurnKeepsTheTableSize: thousands of misses through a three-page
// budget register and evict a page each; with deletes that leave no
// tombstones the slot array stays at its initial size.
func TestMissChurnKeepsTheTableSize(t *testing.T) {
	pageBytes := int64(147 * 147 * 3)
	eng, r, m, l, _ := rig(3*pageBytes, true)
	r.Spawn("q", func(ctx rt.Ctx) {
		for i := 0; i < 5000; i++ {
			m.ReadPage(ctx, "d", i%l.NumPages())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ev := m.Stats().Evictions; ev < 4900 {
		t.Fatalf("%d evictions: the budget did not bind", ev)
	}
	if n, slots := m.pages.n, len(m.pages.slots); n != 3 || slots != minPageSlots {
		t.Fatalf("%d entries in %d slots after the churn, want 3 in %d", n, slots, minPageSlots)
	}
	checkInvariants(t, m)
}
