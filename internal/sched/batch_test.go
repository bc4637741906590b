package sched

import (
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
	"mqsched/internal/vm"
)

// Two fully-overlapping queries plus a half-overlapping one form the hot
// set; a disjoint query ranks below them until aging promotes it.
func TestBatchRankHotness(t *testing.T) {
	g, _ := rig(Batch{Starvation: 0.05})
	g.Insert(meta(geom.R(500, 500, 600, 600))) // disjoint, arrives first
	s := g.Insert(meta(geom.R(0, 0, 100, 100)))
	g.Insert(meta(geom.R(0, 0, 100, 100)))  // identical to s
	g.Insert(meta(geom.R(50, 0, 150, 100))) // half-overlaps both

	// hot(s) = 1 + 1 (identical twin, both directions) + 0.5 + 0.5 = 3, far
	// above the disjoint query's 0; aging at 0.05 per arrival does not close
	// a 3-hotness gap within three arrivals.
	if got := g.Dequeue(); got != s {
		t.Fatalf("dequeue = node %d, want the hot seed %d", got.ID, s.ID)
	}
}

// With no overlapping load every hotness is zero and the batch ranking
// degenerates to exactly FIFO.
func TestBatchRankFIFOWhenDisjoint(t *testing.T) {
	g, _ := rig(Batch{Starvation: DefaultBatchStarvation})
	a := g.Insert(meta(geom.R(0, 0, 10, 10)))
	b := g.Insert(meta(geom.R(200, 200, 210, 210)))
	c := g.Insert(meta(geom.R(400, 400, 410, 410)))
	for i, want := range []*Node{a, b, c} {
		if got := g.Dequeue(); got != want {
			t.Fatalf("dequeue %d: got node %d, want %d (arrival order)", i, got.ID, want.ID)
		}
	}
}

// A large enough starvation weight promotes an old disjoint query over a
// hotter, younger one: the aging blend bounds how long overlap mass can
// keep winning.
func TestBatchRankStarvationPromotes(t *testing.T) {
	g, _ := rig(Batch{Starvation: 2})
	d := g.Insert(meta(geom.R(500, 500, 600, 600))) // Seq 1, hotness 0
	g.Insert(meta(geom.R(0, 0, 100, 100)))          // Seq 2, hotness 2
	g.Insert(meta(geom.R(0, 0, 100, 100)))          // Seq 3, hotness 2
	// rank(d) = −2; rank(hot, Seq 2) = 2 − 4 = −2 ties, FIFO tie-break by
	// Seq picks d; Seq 3 ranks −4.
	if got := g.Dequeue(); got != d {
		t.Fatalf("dequeue = node %d, want aged disjoint node %d", got.ID, d.ID)
	}
}

func TestDequeueBatchGroupsNeighbours(t *testing.T) {
	g, _ := rig(Batch{Starvation: 0.01})
	s := g.Insert(meta(geom.R(0, 0, 100, 100)))
	n1 := g.Insert(meta(geom.R(0, 0, 100, 100)))  // sym weight 20000 with s
	n2 := g.Insert(meta(geom.R(50, 0, 150, 100))) // sym weight 10000 with s
	d := g.Insert(meta(geom.R(500, 500, 600, 600)))

	group := g.DequeueBatch(8)
	if len(group) != 3 {
		t.Fatalf("group size = %d, want 3 (seed + 2 neighbours)", len(group))
	}
	if group[0] != s || group[1] != n1 || group[2] != n2 {
		t.Fatalf("group = [%d %d %d], want seed %d then neighbours by weight [%d %d]",
			group[0].ID, group[1].ID, group[2].ID, s.ID, n1.ID, n2.ID)
	}
	for i, n := range group {
		if n.State() != Executing {
			t.Fatalf("member %d state = %v, want Executing", i, n.State())
		}
		if i > 0 && group[i].ExecSeq != group[i-1].ExecSeq+1 {
			t.Fatalf("ExecSeqs not consecutive ascending: %d after %d",
				group[i].ExecSeq, group[i-1].ExecSeq)
		}
	}
	if d.State() != Waiting {
		t.Fatalf("disjoint node joined the group (state %v)", d.State())
	}
	if got := g.DequeueBatch(8); len(got) != 1 || got[0] != d {
		t.Fatalf("second claim = %v, want just the disjoint node", got)
	}
	if g.DequeueBatch(8) != nil {
		t.Fatal("empty queue should claim nil")
	}
}

func TestDequeueBatchRespectsCap(t *testing.T) {
	g, _ := rig(Batch{})
	s := g.Insert(meta(geom.R(0, 0, 100, 100)))
	n1 := g.Insert(meta(geom.R(0, 0, 100, 100)))
	n2 := g.Insert(meta(geom.R(0, 0, 100, 100)))

	group := g.DequeueBatch(2)
	if len(group) != 2 || group[0] != s || group[1] != n1 {
		t.Fatalf("capped claim = %d members, want [seed %d, %d]", len(group), s.ID, n1.ID)
	}
	if n2.State() != Waiting {
		t.Fatalf("overflow member claimed (state %v)", n2.State())
	}
	if g.WaitingCount() != 1 {
		t.Fatalf("WaitingCount = %d, want 1", g.WaitingCount())
	}
}

func TestDequeueBatchMaxOneIsDequeue(t *testing.T) {
	g, _ := rig(Batch{})
	s := g.Insert(meta(geom.R(0, 0, 100, 100)))
	g.Insert(meta(geom.R(0, 0, 100, 100)))
	group := g.DequeueBatch(1)
	if len(group) != 1 || group[0] != s {
		t.Fatalf("max=1 claim = %d members, want just the seed", len(group))
	}
}

// starvationReplay claims the batch stream one query at a time under
// Batch{Starvation: s}: one disjoint query arrives first (Seq 1, on its own
// slide, so its hotness is exactly zero), then nHot byte-identical hot
// queries that overlap each other fully. Every claimed query leaves the graph
// before the next claim, as it does on a server with one thread, no data
// store and a group size of 1. It returns the disjoint query's 1-based claim
// position and the query count.
func starvationReplay(s float64, nHot int) (int, int) {
	table := dataset.NewTable(vm.NewSlide("slide1", 8192, 8192), vm.NewSlide("slide2", 8192, 8192))
	app := vm.New(table)
	g := New(rt.NewSim(sim.New(), 1), app, Batch{App: app, Starvation: s})
	disjoint := g.Insert(vm.NewMeta("slide2", geom.R(4096, 4096, 6144, 6144), 8, vm.Average))
	for i := 0; i < nHot; i++ {
		g.Insert(vm.NewMeta("slide1", geom.R(0, 0, 2048, 2048), 8, vm.Average))
	}
	pos := 0
	for i := 1; ; i++ {
		n := g.Dequeue()
		if n == nil {
			break
		}
		if n == disjoint {
			pos = i
		}
		g.Remove(n)
	}
	return pos, nHot + 1
}

// TestBatchStarvationDeadline is the anti-starvation regression for the
// batch ranking mode: the aging blend must bound how long a fully
// overlapping hot stream can defer a disjoint query, with the bound
// tightening monotonically in the starvation weight. With aging disabled
// the disjoint query is starved to the very tail, which is exactly the
// failure mode the aging term exists to prevent.
func TestBatchStarvationDeadline(t *testing.T) {
	const nHot = 40
	aggressive, total := starvationReplay(5, nHot)
	moderate, _ := starvationReplay(1, nHot)
	gentle, _ := starvationReplay(0.2, nHot)
	disabled, _ := starvationReplay(0, nHot)

	if disabled < total-1 {
		t.Errorf("aging disabled: disjoint query claimed at position %d of %d, want starved to the tail (>= %d)",
			disabled, total, total-1)
	}
	if !(aggressive < moderate && moderate < gentle && gentle < disabled) {
		t.Errorf("claim positions not monotone in starvation weight: s=5 -> %d, s=1 -> %d, s=0.2 -> %d, disabled -> %d",
			aggressive, moderate, gentle, disabled)
	}
	if aggressive > total/2 {
		t.Errorf("s=5: disjoint query claimed at position %d of %d, want promoted into the first half", aggressive, total)
	}
	// The weight the batch policy builds with must also beat the disabled
	// tail on the same stream.
	if def, _ := starvationReplay(DefaultBatchStarvation, nHot); def > disabled {
		t.Errorf("default starvation: position %d, want <= disabled position %d", def, disabled)
	}
}
