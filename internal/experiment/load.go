package experiment

import (
	"fmt"
	"sync"
	"time"

	"mqsched/internal/datastore"
	"mqsched/internal/load"
	"mqsched/internal/query"
	"mqsched/internal/rt"
	"mqsched/internal/server"
	"mqsched/internal/stats"
)

// LoadMetrics summarizes one open-loop load run on the simulated runtime.
// Times are virtual seconds, so results are deterministic in the seeds —
// this is the fast test path for the same generator/runner workloads
// cmd/mqload offers to a live server.
type LoadMetrics struct {
	Policy   string
	Offered  float64 // empirical offered rate of the stream, queries/sec
	Queries  int     // completed
	Measured int     // post-warmup completions the statistics describe
	// AchievedQPS is measured completions over the post-warmup window.
	AchievedQPS float64
	// Latency quantiles in virtual seconds (from the streaming sketch).
	P50, P95, P99, Max, Mean float64
	// MeanReuse is the mean reused fraction of measured queries.
	MeanReuse float64
	// ReusedBytesFrac is the fraction of all output bytes produced by
	// projection rather than raw computation, over the whole run — the
	// byte-weighted counterpart of MeanReuse and the cache-policy sweep's
	// primary figure of merit.
	ReusedBytesFrac float64
	// FinalTime is the virtual instant the last query completed.
	FinalTime time.Duration
	// Server and DataStore are the end-of-run subsystem counters (DataStore
	// is zero when the run disabled the data store).
	Server    server.Stats
	DataStore datastore.Stats
}

// RunLoad offers an open-loop query stream (load.Build) to the simulated
// stack: a dispatcher process releases each item at its virtual arrival
// instant and a waiter per query records its response time, warmup
// excluded. Unlike RunWorkload's closed-loop clients, arrivals here never
// wait for completions, so queueing delay under overload is visible.
func RunLoad(cfg Config, items []load.Item, warmup time.Duration) (LoadMetrics, error) {
	if len(items) == 0 {
		return LoadMetrics{}, fmt.Errorf("experiment: empty load stream")
	}
	if warmup < 0 {
		return LoadMetrics{}, fmt.Errorf("experiment: warmup %v < 0", warmup)
	}
	cfg = cfg.withDefaults()
	sys, err := cfg.assembleVM()
	if err != nil {
		return LoadMetrics{}, err
	}

	var (
		mu        sync.Mutex
		sk        = stats.NewSketch(0.005)
		measured  int
		completed int
		reuseSum  float64
		finalTime time.Duration
		submitErr error
	)
	record := func(it load.Item, res *query.Result, now time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		completed++
		if it.At >= warmup {
			measured++
			sk.Add(res.ResponseTime().Seconds())
			reuseSum += res.ReusedFrac
		}
		if now > finalTime {
			finalTime = now
		}
	}

	// The dispatcher and every waiter are client processes of the system, so
	// Run returns once the stream has drained.
	sys.Start("load-dispatcher", func(ctx rt.Ctx) {
		for _, it := range items {
			if d := it.At - ctx.Now(); d > 0 {
				ctx.Sleep(d)
			}
			tk, err := sys.Submit(it.Meta)
			if err != nil {
				mu.Lock()
				if submitErr == nil {
					submitErr = err
				}
				mu.Unlock()
				continue
			}
			sys.Start(fmt.Sprintf("load-wait-%d", it.Seq), func(ctx rt.Ctx) {
				res := tk.Wait(ctx)
				record(it, res, ctx.Now())
			})
		}
	})
	if err := sys.Run(); err != nil {
		return LoadMetrics{}, fmt.Errorf("experiment load %v: %w", cfg.Policy, err)
	}
	if submitErr != nil {
		return LoadMetrics{}, fmt.Errorf("experiment load: submit: %w", submitErr)
	}

	m := LoadMetrics{
		Policy:    sys.Graph().Policy().Name(),
		Offered:   float64(len(items)) / items[len(items)-1].At.Seconds(),
		Queries:   completed,
		Measured:  measured,
		P50:       sk.Quantile(50),
		P95:       sk.Quantile(95),
		P99:       sk.Quantile(99),
		Max:       sk.Max(),
		Mean:      sk.Mean(),
		FinalTime: finalTime,
	}
	if win := (finalTime - warmup).Seconds(); win > 0 {
		m.AchievedQPS = float64(measured) / win
	}
	if measured > 0 {
		m.MeanReuse = reuseSum / float64(measured)
	}
	st := sys.Stats()
	m.Server, m.DataStore = st.Server, st.DataStore
	if out := m.Server.ReusedOutputBytes + m.Server.ComputedOutputBytes; out > 0 {
		m.ReusedBytesFrac = float64(m.Server.ReusedOutputBytes) / float64(out)
	}
	return m, nil
}
