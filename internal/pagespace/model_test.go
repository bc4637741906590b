package pagespace

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

// pageKey names a page in the model.
type pageKey struct {
	ds   string
	page int
}

// lruModel is the page space as one list in recency order, by brute force:
// the reference the manager's intrusive list must match step for step.
type lruModel struct {
	budget    int64
	dedup     bool
	table     *dataset.Table
	order     []pageKey // resident pages, least recent first
	used      int64
	evictions int64
	reads     int64 // farm page transfers
}

func (md *lruModel) resident(k pageKey) bool { return md.index(k) >= 0 }

func (md *lruModel) index(k pageKey) int {
	for i, o := range md.order {
		if o == k {
			return i
		}
	}
	return -1
}

func (md *lruModel) size(k pageKey) int64 { return md.table.Get(k.ds).PageBytes(k.page) }

// touch makes a resident page the most recent.
func (md *lruModel) touch(k pageKey) {
	i := md.index(k)
	md.order = append(append(md.order[:i:i], md.order[i+1:]...), k)
}

// publish makes a fetched page resident, then evicts least-recent pages
// other than it until the budget holds.
func (md *lruModel) publish(k pageKey) {
	md.order = append(md.order, k)
	md.used += md.size(k)
	for md.used > md.budget {
		i := 0
		if md.order[0] == k {
			i = 1
		}
		if i == len(md.order) {
			return
		}
		md.used -= md.size(md.order[i])
		md.order = append(md.order[:i:i], md.order[i+1:]...)
		md.evictions++
	}
}

func (md *lruModel) readPage(k pageKey) {
	if md.resident(k) {
		md.touch(k)
		return
	}
	md.reads++
	md.publish(k)
}

// readPages mirrors ReadPages' three passes: classify (touching hits),
// fetch the owned pages and any dedup-disabled duplicates in one batch and
// publish the owned ones, then re-read coalesced duplicates one by one.
func (md *lruModel) readPages(ds string, pages []int) {
	var owned, waiters []pageKey
	isOwned := map[pageKey]bool{}
	for _, p := range pages {
		k := pageKey{ds, p}
		switch {
		case md.resident(k):
			md.touch(k)
		case isOwned[k] && md.dedup:
			waiters = append(waiters, k)
		case isOwned[k]:
			md.reads++ // duplicate transfer, not cached
		default:
			isOwned[k] = true
			owned = append(owned, k)
		}
	}
	md.reads += int64(len(owned))
	for _, k := range owned {
		md.publish(k)
	}
	for _, k := range waiters {
		md.readPage(k)
	}
}

// startFetchBatch mirrors a prefetch hint run to completion; StartFetch is
// the one-page case. Hints are inert with dedup off.
func (md *lruModel) startFetchBatch(ds string, pages []int) {
	if !md.dedup {
		return
	}
	var fetch []pageKey
	seen := map[pageKey]bool{}
	for _, p := range pages {
		k := pageKey{ds, p}
		if md.resident(k) || seen[k] {
			continue
		}
		seen[k] = true
		fetch = append(fetch, k)
	}
	md.reads += int64(len(fetch))
	for _, k := range fetch {
		md.publish(k)
	}
}

// TestMatchesSingleListLRU drives seeded random op tapes — single and
// batched reads with duplicates, single and batched prefetch hints, dedup on
// and off, budgets from below one page to about 40 pages, two datasets with
// ragged edge pages — through the manager on the sim runtime, one op at a
// time, and after every op holds the resident set, Used, Evictions and the
// farm's transfer count equal to the brute-force model's.
func TestMatchesSingleListLRU(t *testing.T) {
	a := dataset.New("a", 147*6+40, 147*5+20, 3, 147) // 7x6 pages, ragged right and bottom
	b := dataset.New("b", 500, 500, 3, 147)           // 4x4 pages
	table := dataset.NewTable(a, b)
	full := a.FullPageBytes()
	for seed := int64(1); seed <= 24; seed++ {
		for _, dedup := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			budget := rng.Int63n(40*full) + 1
			if seed%6 == 0 {
				budget = full / 2 // below one page
			}
			name := fmt.Sprintf("seed=%d/dedup=%v/budget=%d", seed, dedup, budget)
			t.Run(name, func(t *testing.T) {
				checkAgainstModel(t, rng, table, budget, dedup)
			})
		}
	}
}

func checkAgainstModel(t *testing.T, rng *rand.Rand, table *dataset.Table, budget int64, dedup bool) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	farm := disk.NewFarm(r, disk.Config{
		Disks: 2, Seek: time.Millisecond, SeqSeek: time.Millisecond, BandwidthBps: 1 << 50,
	}, nil)
	m := New(r, table, farm, Options{Budget: budget, DisableDedup: !dedup})
	m.prefetchLimit = -1
	md := &lruModel{budget: budget, dedup: dedup, table: table}
	names := []string{"a", "b"}

	randPages := func(ds string, n int) []int {
		pages := make([]int, n)
		for i := range pages {
			pages[i] = rng.Intn(table.Get(ds).NumPages())
		}
		return pages
	}
	const steps = 150
	r.Spawn("tape", func(ctx rt.Ctx) {
		for step := 0; step < steps; step++ {
			ds := names[rng.Intn(len(names))]
			var op string
			switch n := rng.Intn(10); {
			case n < 4:
				p := randPages(ds, 1)[0]
				op = fmt.Sprintf("ReadPage(%s, %d)", ds, p)
				m.ReadPage(ctx, ds, p)
				md.readPage(pageKey{ds, p})
			case n < 7:
				pages := randPages(ds, 1+rng.Intn(8))
				if rng.Intn(2) == 0 { // force a duplicate
					pages = append(pages, pages[rng.Intn(len(pages))])
				}
				op = fmt.Sprintf("ReadPages(%s, %v)", ds, pages)
				m.ReadPages(ctx, table.Get(ds), pages)
				md.readPages(ds, pages)
			case n < 8:
				p := randPages(ds, 1)[0]
				op = fmt.Sprintf("StartFetch(%s, %d)", ds, p)
				m.StartFetch(table.Get(ds), p)
				ctx.Sleep(time.Second) // let the background fetch publish
				md.startFetchBatch(ds, []int{p})
			default:
				pages := randPages(ds, 1+rng.Intn(6))
				op = fmt.Sprintf("StartFetchBatch(%s, %v)", ds, pages)
				m.StartFetchBatch(table.Get(ds), pages)
				ctx.Sleep(time.Second)
				md.startFetchBatch(ds, pages)
			}
			if msg := diffModel(m, farm, md, table, names); msg != "" {
				t.Errorf("step %d, %s: %s", step, op, msg)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, m)
}

// diffModel describes the first way the manager differs from the model, or
// returns "".
func diffModel(m *Manager, farm *disk.Farm, md *lruModel, table *dataset.Table, names []string) string {
	for _, ds := range names {
		for p := 0; p < table.Get(ds).NumPages(); p++ {
			if got, want := m.Resident(ds, p), md.resident(pageKey{ds, p}); got != want {
				return fmt.Sprintf("page %s/%d resident = %v, model %v (model LRU order %v)", ds, p, got, want, md.order)
			}
		}
	}
	if got := m.Used(); got != md.used {
		return fmt.Sprintf("Used = %d, model %d", got, md.used)
	}
	if got := m.Stats().Evictions; got != md.evictions {
		return fmt.Sprintf("Evictions = %d, model %d", got, md.evictions)
	}
	if got := farm.Stats().Reads; got != md.reads {
		return fmt.Sprintf("farm reads = %d, model %d", got, md.reads)
	}
	return ""
}
