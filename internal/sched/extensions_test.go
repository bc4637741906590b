package sched

import (
	"testing"

	"mqsched/internal/geom"
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
