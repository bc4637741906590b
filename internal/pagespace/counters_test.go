package pagespace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/metrics"
	"mqsched/internal/rt"
)

// TestCountersExactUnderConcurrency: eight goroutines on the real runtime
// read overlapping pages of a ragged layout through a four-page budget, by
// layout and by name, while another polls Stats and a registry snapshot.
// The counters live under the page space's and the farm's locks, so every
// poll sees each counter no lower than the last, and at the end every
// request is one hit or one miss (a coalesced request retries until it is
// one of them), each miss is one farm read (FIFO, dedup on, no prefetch),
// both sides count the same bytes, and each mqsched_pagespace_* and
// mqsched_disk_* series equals its Stats field. CI runs it under the race
// detector, twenty times over.
func TestCountersExactUnderConcurrency(t *testing.T) {
	r := rt.NewReal(rt.RealOptions{TimeScale: 0.00001})
	l := dataset.New("d", 16*6+5, 16*4+9, 3, 16) // 7x5 pages, the last row and column ragged
	reg := metrics.NewRegistry()
	farm := disk.NewFarm(r, disk.Config{Disks: 2}, func(l *dataset.Layout, page int) []byte {
		return make([]byte, l.PageBytes(page))
	})
	farm.UseMetrics(reg)
	m := New(r, dataset.NewTable(l), farm, Options{Budget: 4 * l.FullPageBytes(), Metrics: reg})

	const readers, reads = 8, 300
	var requests atomic.Int64
	for i := 0; i < readers; i++ {
		r.Spawn(fmt.Sprintf("q%d", i), func(ctx rt.Ctx) {
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < reads; n++ {
				p := rng.Intn(12) // overlapping: every reader wants the same 12 pages
				var data []byte
				if n%2 == 0 {
					data = m.Read(ctx, l, p)
				} else {
					data = m.ReadPage(ctx, "d", p)
				}
				if int64(len(data)) != l.PageBytes(p) {
					t.Errorf("page %d: %d bytes, want %d", p, len(data), l.PageBytes(p))
				}
				requests.Add(1)
			}
		})
	}

	stop := make(chan struct{})
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		var last Stats
		var lastSnap map[string]float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := m.Stats()
			if st.Hits < last.Hits || st.Misses < last.Misses || st.InflightWaits < last.InflightWaits ||
				st.Evictions < last.Evictions || st.BytesRead < last.BytesRead {
				t.Errorf("Stats went back: %+v after %+v", st, last)
				return
			}
			last = st
			snap := reg.Snapshot()
			now := map[string]float64{}
			for _, name := range countedFamilies {
				now[name] = snap.Value(name)
				if now[name] < lastSnap[name] {
					t.Errorf("%s went back: %v after %v", name, now[name], lastSnap[name])
					return
				}
			}
			lastSnap = now
		}
	}()
	r.Wait()
	close(stop)
	polled.Wait()

	st, fs := m.Stats(), farm.Stats()
	if got := st.Hits + st.Misses; got != requests.Load() || got != readers*reads {
		t.Errorf("hits %d + misses %d = %d for %d requests", st.Hits, st.Misses, got, requests.Load())
	}
	if st.InflightWaits == 0 || st.Evictions == 0 {
		t.Errorf("stats %+v: the run must coalesce and evict", st)
	}
	if st.Misses != fs.Reads {
		t.Errorf("%d page space misses, %d farm reads", st.Misses, fs.Reads)
	}
	if st.BytesRead != fs.BytesRead {
		t.Errorf("page space read %d bytes, the farm %d", st.BytesRead, fs.BytesRead)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"mqsched_pagespace_hits_total":            float64(st.Hits),
		"mqsched_pagespace_misses_total":          float64(st.Misses),
		"mqsched_pagespace_dedup_coalesced_total": float64(st.InflightWaits),
		"mqsched_pagespace_evictions_total":       float64(st.Evictions),
		"mqsched_pagespace_read_bytes_total":      float64(st.BytesRead),
		"mqsched_pagespace_prefetches_total":      float64(st.Prefetches),
		"mqsched_pagespace_prefetch_drops_total":  float64(st.PrefetchDrops),
		"mqsched_disk_reads_total":                float64(fs.Reads),
		"mqsched_disk_seq_reads_total":            float64(fs.SeqReads),
		"mqsched_disk_read_bytes_total":           float64(fs.BytesRead),
		"mqsched_disk_merged_reads_total":         float64(fs.MergedReads),
	} {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %v, Stats says %v", name, got, want)
		}
	}
	// The busy time is published per spindle in seconds; their sum may
	// round differently from the total's.
	if got, want := snap.Value("mqsched_disk_busy_seconds_total"), fs.ServiceSum.Seconds(); math.Abs(got-want) > 1e-9 {
		t.Errorf("mqsched_disk_busy_seconds_total = %v, Stats says %v", got, want)
	}
}

// countedFamilies are the counters the poller holds monotonic.
var countedFamilies = []string{
	"mqsched_pagespace_hits_total", "mqsched_pagespace_misses_total",
	"mqsched_pagespace_dedup_coalesced_total", "mqsched_pagespace_evictions_total",
	"mqsched_pagespace_read_bytes_total", "mqsched_disk_reads_total",
	"mqsched_disk_seq_reads_total", "mqsched_disk_read_bytes_total",
	"mqsched_disk_busy_seconds_total",
}
