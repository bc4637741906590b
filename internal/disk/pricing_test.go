package disk

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/rt"
	"mqsched/internal/trace"
)

// TestFIFOPricingPinned pins the FIFO farm's virtual-time timeline read by
// read. Twelve seeded processes read random pages (single pages and short
// runs, with think gaps) of three ragged layouts through one four-disk FIFO
// farm. For every read, in completion order, it hashes the virtual completion
// time, the spindle, the positioning class, the interleaved-stream estimate
// and the service time billed to the spindle. A change to how or when a FIFO
// read is priced moves the hash.
func TestFIFOPricingPinned(t *testing.T) {
	const want = uint64(0xa4a0a75f2648263b)
	eng, r, f := simFarm(Config{Disks: 4})
	tr := trace.NewTracer(r.Now, trace.TracerOptions{})
	layouts := []*dataset.Layout{
		dataset.New("alpha", 147*9+50, 147*6+17, 3, 147),
		dataset.New("beta", 147*4+1, 147*11+146, 3, 147),
		dataset.New("gamma", 147*13-20, 147*3+90, 3, 147),
	}

	type read struct {
		end     time.Duration
		disk    int
		service int64
	}
	var reads []read
	busy := make([]int64, f.Disks()) // per spindle: service billed up to its last completion
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			root := tr.StartRoot(int64(i)+1, trace.SubServer, trace.OpQuery)
			qctx := rt.WithSpan(ctx, root)
			for k := 0; k < 30; k++ {
				l := layouts[rng.Intn(len(layouts))]
				first := rng.Intn(l.NumPages())
				last := min(l.NumPages(), first+1+rng.Intn(4))
				for p := first; p < last; p++ {
					d := f.DiskFor(l.Name, p)
					f.Read(qctx, l, p)
					// The spindle is this process's until it parks again, so
					// the service billed since the spindle's previous
					// completion is this read's.
					b := f.mx.busyNanos[d]
					reads = append(reads, read{ctx.Now(), d, b - busy[d]})
					busy[d] = b
				}
				if rng.Intn(3) == 0 {
					ctx.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
				}
			}
			root.Finish()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	var spans []trace.Span
	for _, s := range tr.Spans() {
		if s.Subsystem == trace.SubDisk {
			spans = append(spans, s)
		}
	}
	if len(spans) != len(reads) {
		t.Fatalf("%d disk spans for %d reads", len(spans), len(reads))
	}
	h := fnv.New64a()
	word := func(v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	var seqs, thrashed int
	for i, rd := range reads {
		s := spans[i]
		spindle, _ := s.AttrNum(trace.AttrSpindle)
		streams, _ := s.AttrNum(trace.AttrStreams)
		seqAttr, _ := s.Attr(trace.AttrSequential)
		seq := seqAttr.Value() == true
		if int(spindle) != rd.disk || s.End != rd.end {
			t.Fatalf("read %d: span on disk %v ending %v, read on disk %d ending %v", i, spindle, s.End, rd.disk, rd.end)
		}
		var seqBit int64
		if seq {
			seqs, seqBit = seqs+1, 1
		} else if streams > 1 {
			thrashed++
		}
		word(int64(rd.end))
		word(int64(rd.disk))
		word(seqBit)
		word(int64(streams))
		word(rd.service)
	}
	if seqs == 0 || thrashed == 0 {
		t.Fatalf("%d reads: %d sequential, %d thrashed; the tape must exercise both prices", len(reads), seqs, thrashed)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("FIFO timeline of %d reads hashes to %#x, want %#x", len(reads), got, want)
	}
}

// TestSimulatedFarmReadAllocatesNothing: with tracing off, a FIFO page read
// on the simulated runtime allocates nothing. The spindle is priced between
// Station.Seize and Station.Finish, so no pricing closure or captured result
// escapes, and the spindle and the requester come from hashes computed
// before the read.
func TestSimulatedFarmReadAllocatesNothing(t *testing.T) {
	eng, r, f := simFarm(Config{Disks: 4})
	l := dataset.New("d", 147*20+30, 147*20+30, 3, 147)
	r.Spawn("q", func(ctx rt.Ctx) {
		page := 0
		if n := testing.AllocsPerRun(100, func() {
			f.Read(ctx, l, page)
			page = (page + 7) % l.NumPages()
		}); n != 0 {
			t.Errorf("a simulated farm read allocates %v", n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
