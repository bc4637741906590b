package sched

import (
	"testing"
	"time"

	"mqsched/internal/geom"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

func TestCombinedRank(t *testing.T) {
	c := Combined{Beta: 0.5}
	if c.Name() == "" {
		t.Error("empty name")
	}

	g2, app := rig(c)
	prod := g2.Insert(meta(geom.R(0, 0, 100, 100)))
	cons := g2.Insert(meta(geom.R(0, 0, 100, 100)))
	if g2.Dequeue() != prod {
		t.Fatal("prod should go first")
	}
	g2.MarkCached(prod)
	// cons: locality 10000 (cached producer) − 0.5·qinputsize.
	wantLocality := 10000.0
	qin := float64(app.QInSize(cons.Meta))
	if got := cons.Rank(); got != wantLocality-0.5*qin {
		t.Fatalf("rank = %v, want %v", got, wantLocality-0.5*qin)
	}
}

func TestCombinedDegeneratesToCNBF(t *testing.T) {
	c := Combined{Beta: 0}
	cn := CNBF{}
	g, _ := rig(c)
	a := g.Insert(meta(geom.R(0, 0, 100, 100)))
	b := g.Insert(meta(geom.R(0, 0, 100, 100)))
	g.Dequeue()
	g.MarkCached(a)
	if c.Rank(b) != cn.Rank(b) {
		t.Fatalf("β=0 Combined %v != CNBF %v", c.Rank(b), cn.Rank(b))
	}
}

func TestResourceAwareShiftsWithLoad(t *testing.T) {
	_, app := rig(nil)
	var cpu, dsk float64
	p := ResourceAware{
		App:   app,
		Probe: func() (float64, float64) { return cpu, dsk },
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
	g, _ := rig(p)
	n := g.Insert(meta(geom.R(0, 0, 200, 200))) // big input

	// Idle system: rank is the pure locality term (0 here).
	if got := p.Rank(n); got != 0 {
		t.Fatalf("idle rank = %v", got)
	}
	// Saturated disks: the query's input size counts against it.
	dsk = 1
	if got := p.Rank(n); got != -float64(app.QInSize(n.Meta)) {
		t.Fatalf("disk-bound rank = %v, want %v", got, -float64(app.QInSize(n.Meta)))
	}
	// CPU load adds the compute proxy penalty (QOutSize without an
	// estimator).
	cpu, dsk = 1, 0
	if got := p.Rank(n); got != -float64(app.QOutSize(n.Meta)) {
		t.Fatalf("cpu-bound rank = %v", got)
	}
	// Nil probe behaves as idle.
	p2 := ResourceAware{App: app}
	if p2.Rank(n) != 0 {
		t.Fatal("nil probe should read as idle")
	}
}

type fixedPolicy struct {
	name string
	v    float64
}

func (f fixedPolicy) Name() string       { return f.name }
func (f fixedPolicy) Rank(*Node) float64 { return f.v }

func TestAutoTuneExploresThenExploits(t *testing.T) {
	a := NewAutoTune([]Policy{fixedPolicy{"slow", 0}, fixedPolicy{"fast", 1}}, 4, 0.0001)
	if a.Current() != 0 {
		t.Fatal("should start on the first candidate")
	}
	// Window of slow responses on candidate 0.
	for i := 0; i < 3; i++ {
		if a.Observe(10 * time.Second) {
			t.Fatal("must not switch mid-window")
		}
	}
	if !a.Observe(10 * time.Second) {
		t.Fatal("should switch to the unexplored candidate")
	}
	if a.Current() != 1 {
		t.Fatalf("current = %d", a.Current())
	}
	// Candidate 1 performs much better: stays (exploration is ~0).
	for w := 0; w < 5; w++ {
		for i := 0; i < 4; i++ {
			a.Observe(time.Second)
		}
	}
	if a.Current() != 1 {
		t.Fatalf("abandoned the better candidate: current = %d", a.Current())
	}
	if a.Name() == "" {
		t.Error("empty name")
	}
}

func TestAutoTuneRequiresCandidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAutoTune(nil, 4, 0.1)
}

func TestGraphObserveReRanks(t *testing.T) {
	_, app := rig(nil)
	// Two candidates with opposite orderings on this workload: FIFO vs SJF.
	at := NewAutoTune([]Policy{FIFO{}, SJF{}}, 1, 0.0001)
	g := New(rt.NewSim(sim.New(), 1), app, at)
	big := g.Insert(meta(geom.R(0, 0, 500, 500)))
	small := g.Insert(meta(geom.R(700, 700, 750, 750)))
	_ = big
	// Under FIFO, big (first arrival) heads the queue. One observation
	// switches to the unexplored SJF, which must re-rank the waiting set.
	g.Observe(time.Second)
	if got := g.Dequeue(); got != small {
		t.Fatalf("after switch, dequeued node %d (want SJF's choice %d)", got.ID, small.ID)
	}
}

// Observing with a non-feedback policy is a no-op.
func TestGraphObserveNoFeedback(t *testing.T) {
	g, _ := rig(FIFO{})
	g.Insert(meta(geom.R(0, 0, 10, 10)))
	g.Observe(time.Second) // must not panic or change anything
	if g.WaitingCount() != 1 {
		t.Fatal("Observe changed the queue")
	}
}
