package disk

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/rt"
	"mqsched/internal/sim"
)

func simFarm(cfg Config) (*sim.Engine, *rt.SimRuntime, *Farm) {
	eng := sim.New()
	r := rt.NewSim(eng, 8)
	return eng, r, NewFarm(r, cfg, nil)
}

func TestDefaults(t *testing.T) {
	_, _, f := simFarm(Config{})
	if f.Disks() != 4 {
		t.Fatalf("Disks = %d", f.Disks())
	}
	// 64KB-ish page at 25MB/s ≈ 2.47ms transfer + 5ms seek.
	svc := f.ServiceTime(64827, false, 1)
	if svc < 7*time.Millisecond || svc > 8*time.Millisecond {
		t.Fatalf("random service = %v", svc)
	}
	seq := f.ServiceTime(64827, true, 1)
	if seq >= svc || seq < 3*time.Millisecond {
		t.Fatalf("sequential service = %v (random %v)", seq, svc)
	}
}

func TestDiskForStriping(t *testing.T) {
	_, _, f := simFarm(Config{Disks: 4})
	base := f.DiskFor("ds", 0)
	for p := 0; p < 16; p++ {
		if got, want := f.DiskFor("ds", p), (base+p)%4; got != want {
			t.Fatalf("DiskFor(%d) = %d, want %d", p, got, want)
		}
	}
	// Deterministic.
	if f.DiskFor("ds", 3) != f.DiskFor("ds", 3) {
		t.Fatal("DiskFor not deterministic")
	}
}

// TestDiskForIsFNV32a compares DiskFor's inline hash with hash/fnv's FNV-32a
// over random names (random bytes, the empty name included), random pages,
// and one to sixteen disks, and the read path's spindle, which takes the
// hash dataset.New kept, with both.
func TestDiskForIsFNV32a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	farms := make([]*Farm, 17)
	for n := 1; n <= 16; n++ {
		_, _, farms[n] = simFarm(Config{Disks: n})
	}
	for i := 0; i < 10000; i++ {
		name := make([]byte, rng.Intn(16))
		for j := range name {
			name[j] = byte(rng.Intn(256))
		}
		page := rng.Intn(1 << 20)
		disks := 1 + rng.Intn(16)
		h := fnv.New32a()
		h.Write(name)
		want := (int(h.Sum32()%uint32(disks)) + page) % disks
		if got := farms[disks].DiskFor(string(name), page); got != want {
			t.Fatalf("page %d of %q on %d disks: DiskFor = %d, want %d", page, name, disks, got, want)
		}
		if got := farms[disks].spindle(dataset.New(string(name), 1, 1, 1, 1), page); got != want {
			t.Fatalf("page %d of %q on %d disks: spindle = %d, want %d", page, name, disks, got, want)
		}
	}
}

func TestSequentialDiscountForScan(t *testing.T) {
	eng, r, f := simFarm(Config{Disks: 4})
	l := dataset.New("d", 147*40, 147*40, 3, 147) // 1600 pages
	r.Spawn("scan", func(ctx rt.Ctx) {
		for p := 0; p < 100; p++ {
			f.Read(ctx, l, p)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Reads != 100 {
		t.Fatalf("Reads = %d", st.Reads)
	}
	// A scan strides each disk by 4 (= Disks), within SeqWindow: almost all
	// reads after the first on each disk are sequential.
	if st.SeqReads < 90 {
		t.Fatalf("SeqReads = %d, want >= 90", st.SeqReads)
	}
	if st.BytesRead != 100*147*147*3 {
		t.Fatalf("BytesRead = %d", st.BytesRead)
	}
}

func TestInterleavedStreamsLoseSequentiality(t *testing.T) {
	eng, r, f := simFarm(Config{Disks: 4})
	l := dataset.New("d", 147*100, 147*100, 3, 147) // 10000 pages
	// Two concurrent scans over distant regions interleave at the disks.
	for i := 0; i < 2; i++ {
		start := i * 5000
		r.Spawn(fmt.Sprintf("scan%d", i), func(ctx rt.Ctx) {
			for p := start; p < start+100; p++ {
				f.Read(ctx, l, p)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	// Interleaving kills most of the sequential discount.
	if st.SeqReads > st.Reads/2 {
		t.Fatalf("SeqReads = %d of %d; interleaving should break sequentiality", st.SeqReads, st.Reads)
	}
}

func TestFarmSerializesPerDisk(t *testing.T) {
	eng, r, f := simFarm(Config{Disks: 1, Seek: 5 * time.Millisecond, SeqSeek: 5 * time.Millisecond, BandwidthBps: 1 << 30})
	l := dataset.New("d", 1470, 147, 3, 147)
	for i := 0; i < 3; i++ {
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			f.Read(ctx, l, 5)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Three ~5ms services on one spindle: ~15ms serialized.
	if eng.Now() < 15*time.Millisecond {
		t.Fatalf("makespan %v, want >= 15ms", eng.Now())
	}
	if u := f.Utilization(); u < 0.99 {
		t.Fatalf("utilization %v", u)
	}
}

func TestParallelAcrossDisks(t *testing.T) {
	eng, r, f := simFarm(Config{Disks: 4, Seek: 5 * time.Millisecond, SeqSeek: 5 * time.Millisecond, BandwidthBps: 1 << 40})
	l := dataset.New("d", 1470, 1470, 3, 147)
	// Four reads hitting four distinct disks proceed in parallel.
	base := f.DiskFor("d", 0)
	_ = base
	for i := 0; i < 4; i++ {
		page := i // pages 0..3 land on distinct disks
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			f.Read(ctx, l, page)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() > 6*time.Millisecond {
		t.Fatalf("makespan %v, want ~5ms (parallel disks)", eng.Now())
	}
}

func TestGeneratorOnRealRuntime(t *testing.T) {
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.0001})
	called := 0
	gen := func(l *dataset.Layout, page int) []byte {
		called++
		return make([]byte, l.PageBytes(page))
	}
	f := NewFarm(r, Config{}, gen)
	l := dataset.New("d", 294, 147, 3, 147)
	var got []byte
	var size int64
	r.Spawn("q", func(ctx rt.Ctx) {
		got, size = f.Read(ctx, l, 1)
	})
	r.Wait()
	if called != 1 || int64(len(got)) != l.PageBytes(1) || size != l.PageBytes(1) {
		t.Fatalf("generator called %d, got %d bytes, read reports %d", called, len(got), size)
	}
}

func TestReadOutOfRangePanics(t *testing.T) {
	eng, r, f := simFarm(Config{})
	l := dataset.New("d", 147, 147, 3, 147)
	r.Spawn("bad", func(ctx rt.Ctx) { f.Read(ctx, l, 1) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = eng.Run()
}

// TestStreamsCountNamesNotProcesses pins what a stream is to the seek-thrash
// price: a requester name. Two processes of one name (built apart, so the
// strings share no memory) interleaving on a spindle are one stream and pay
// the plain seek; two of different names of one length are two streams and
// pay the thrash factor from their second read on.
func TestStreamsCountNamesNotProcesses(t *testing.T) {
	for _, tc := range []struct {
		names   [2]string
		streams int
	}{
		{[2]string{fmt.Sprintf("q%d", 7), fmt.Sprintf("q%d", 7)}, 1},
		{[2]string{"qa", "qb"}, 2},
	} {
		eng, r, f := simFarm(Config{Disks: 1, BandwidthBps: 1 << 50})
		l := dataset.New("d", 147*20, 147*20, 3, 147)
		for _, name := range tc.names {
			r.Spawn(name, func(ctx rt.Ctx) {
				for p := 0; p < 200; p += 10 { // never within SeqWindow of the last page
					f.Read(ctx, l, p)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		bytes := l.FullPageBytes()
		want := f.ServiceTime(bytes, false, 1) + 39*f.ServiceTime(bytes, false, tc.streams)
		if st := f.Stats(); st.Reads != 40 || st.SeqReads != 0 || st.ServiceSum != want {
			t.Errorf("requesters %q: %d reads, %d sequential, busy %v; want 40, 0, %v (%d streams)",
				tc.names, st.Reads, st.SeqReads, st.ServiceSum, want, tc.streams)
		}
	}
}

// TestRequesterRingCountsDistinct: over random requester sequences and ring
// sizes, the ring's distinct count equals a brute-force count over the last
// size requesters.
func TestRequesterRingCountsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(20)
		names := 1 + rng.Intn(2*size)
		r := newRequesterRing(size)
		var seen []string
		for i := 0; i < 5*size; i++ {
			name := fmt.Sprintf("q%d", rng.Intn(names))
			seen = append(seen, name)
			window := seen[max(0, len(seen)-size):]
			distinct := map[string]bool{}
			for _, n := range window {
				distinct[n] = true
			}
			if got := r.note(requester{name, dataset.HashName(name)}); got != len(distinct) {
				t.Fatalf("trial %d (size %d), step %d: %d distinct, want %d in %v", trial, size, i, got, len(distinct), window)
			}
		}
	}
}

// TestRequesterRingHashCollision: two names forced onto one hash are two
// streams — the ring compares names wherever the hashes agree — both while
// the ring fills and once it overwrites its slots.
func TestRequesterRingHashCollision(t *testing.T) {
	a, b := requester{"qa", 7}, requester{"qb", 7}
	r := newRequesterRing(3)
	for i, step := range []struct {
		q    requester
		want int
	}{
		{a, 1}, {b, 2}, {a, 2}, // filling: a b a
		{b, 2}, // b b a
		{b, 2}, // b b a (slot 1 already holds b)
		{b, 1}, // b b b
		{a, 2}, // a b b
	} {
		if got := r.note(step.q); got != step.want {
			t.Fatalf("step %d (%s): %d distinct, want %d", i, step.q.name, got, step.want)
		}
	}
}
