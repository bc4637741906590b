package pagespace

// pageTable maps a page key (see dsRef.key) to the page's entry. It is one
// open-addressed array of slots probed linearly from the key's home slot,
// and a delete shifts the rest of its probe run back, so the miss/evict
// churn of a full page space leaves no tombstones: the slot count follows
// the resident plus in-flight pages, never the number of misses. Callers
// hold Manager.mu.
type pageTable struct {
	slots []pageSlot // power-of-two length; e == nil marks an empty slot
	shift uint       // 64 − log2(len(slots))
	n     int        // occupied slots
}

type pageSlot struct {
	key uint64
	e   *pageEntry
}

// minPageSlots is the slot count of an empty table, 1<<minPageSlotBits.
const (
	minPageSlotBits = 6
	minPageSlots    = 1 << minPageSlotBits
)

func newPageTable() pageTable {
	return pageTable{slots: make([]pageSlot, minPageSlots), shift: 64 - minPageSlotBits}
}

// home is k's first probe: Fibonacci hashing spreads the consecutive
// pages of one dataset over the whole array.
func (t *pageTable) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// find returns k's entry, or nil and the slot insertAt fills for k.
func (t *pageTable) find(k uint64) (*pageEntry, int) {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.e == nil || s.key == k {
			return s.e, i
		}
	}
}

// get returns k's entry, or nil.
func (t *pageTable) get(k uint64) *pageEntry {
	e, _ := t.find(k)
	return e
}

// insertAt puts e under key e.key in slot i, which find returned for e.key
// with no change to the table since. The table doubles once more than half
// its slots are taken, which keeps probe runs short.
func (t *pageTable) insertAt(i int, e *pageEntry) {
	t.slots[i] = pageSlot{key: e.key, e: e}
	t.n++
	if 2*t.n > len(t.slots) {
		old := t.slots
		t.slots = make([]pageSlot, 2*len(old))
		t.shift--
		for _, s := range old {
			if s.e != nil {
				_, j := t.find(s.key)
				t.slots[j] = s
			}
		}
	}
}

// delete removes k, which must be present, and moves each later entry of
// its probe run that may not sit past the gap into it.
func (t *pageTable) delete(k uint64) {
	mask := len(t.slots) - 1
	_, i := t.find(k)
	for j := (i + 1) & mask; t.slots[j].e != nil; j = (j + 1) & mask {
		// The entry at j stays unless the gap at i lies on its path from
		// home to j, that is, unless i is cyclically in [home, j).
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pageSlot{}
	t.n--
}
