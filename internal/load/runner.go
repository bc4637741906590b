package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"mqsched/internal/netproto"
	"mqsched/internal/stats"
	"mqsched/internal/vm"
)

// RunnerConfig configures one measurement phase against a live server (or
// several — a fleet addressed directly, or one mqrouter), whichever way Run
// is told to pace it.
type RunnerConfig struct {
	// Addr is the mqserver address.
	Addr string
	// Addrs addresses several servers at once: queries round-robin across
	// them and the reuse scrape sums every server's counters. Mutually
	// exclusive with Addr.
	Addrs []string
	// Workers bounds concurrent in-flight requests and the connection pool
	// size (default 32).
	Workers int
	// QueueCap bounds the arrival buffer between the dispatcher and the
	// workers (default 65536). In an open loop arrivals never wait for
	// completions; when the buffer fills, further arrivals are counted as
	// dropped instead of blocking the clock — the honest overload signal.
	QueueCap int
	// Warmup excludes queries arriving before this offset from the
	// statistics (they still run, heating the caches).
	Warmup time.Duration
	// RelErr is the latency sketch's relative error bound (default 0.01).
	RelErr float64
	// Record, when non-nil, receives one JSON line per completed query
	// (ts/seq/user/latency/server timings) for offline analysis.
	Record io.Writer
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
}

func (c RunnerConfig) withDefaults() RunnerConfig {
	if c.Workers == 0 {
		c.Workers = 32
	}
	if c.QueueCap == 0 {
		c.QueueCap = 65536
	}
	if c.RelErr == 0 {
		c.RelErr = 0.01
	}
	return c
}

// addrs is the effective server list.
func (c RunnerConfig) addrs() []string {
	if len(c.Addrs) > 0 {
		return c.Addrs
	}
	if c.Addr != "" {
		return []string{c.Addr}
	}
	return nil
}

// Validate reports the first configuration error.
func (c RunnerConfig) Validate() error {
	d := c.withDefaults()
	for _, a := range c.Addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("load: empty server address in Addrs")
		}
	}
	switch {
	case c.Addr != "" && len(c.Addrs) > 0:
		return fmt.Errorf("load: set Addr or Addrs, not both")
	case len(c.addrs()) == 0:
		return fmt.Errorf("load: runner needs a server address")
	case d.Workers < 1:
		return fmt.Errorf("load: workers %d < 1", c.Workers)
	case d.QueueCap < 1:
		return fmt.Errorf("load: queue capacity %d < 1", c.QueueCap)
	case c.Warmup < 0:
		return fmt.Errorf("load: warmup %v < 0", c.Warmup)
	case !(d.RelErr > 0 && d.RelErr < 1):
		return fmt.Errorf("load: sketch relative error %v outside (0, 1)", c.RelErr)
	}
	return nil
}

// Result summarizes one phase. Latency statistics cover only measured
// (post-warmup) completions.
type Result struct {
	// Offered is the configured arrival rate in queries/sec (0 for a closed
	// loop, where completions set the rate).
	Offered float64
	// Sent counts queries put on the wire; Dropped counts arrivals that
	// found the queue full (open-loop overload); Errors counts transport or
	// server errors.
	Sent, Dropped, Errors int
	// Completed counts successful responses; Measured is the post-warmup
	// subset the statistics describe.
	Completed, Measured int
	// Elapsed is the wall time of the whole phase; MeasuredTime is the
	// post-warmup portion.
	Elapsed, MeasuredTime time.Duration
	// AchievedQPS is Measured / MeasuredTime — the served throughput at
	// this offered load.
	AchievedQPS float64
	// Latency is the streaming sketch of measured latencies in
	// milliseconds.
	Latency *stats.Sketch
	// MeanReuse is the mean server-reported reused fraction of measured
	// queries.
	MeanReuse float64
	// ServerReusedFrac is the byte-weighted reuse fraction over the whole
	// phase, computed from the server's reused/computed output-byte counters
	// scraped before and after the phase (0 when the scrape failed or the
	// server produced no output bytes).
	ServerReusedFrac float64
}

// record is one per-query JSONL line for offline analysis (mqviz).
type record struct {
	Seq     int     `json:"seq"`
	User    int     `json:"user"`
	AtMS    float64 `json:"at_ms"`   // scheduled arrival offset
	LatMS   float64 `json:"lat_ms"`  // client-observed latency
	WaitMS  float64 `json:"wait_ms"` // server-reported queueing delay
	Reused  float64 `json:"reused"`
	Err     string  `json:"err,omitempty"`
	Warmup  bool    `json:"warmup,omitempty"`
	Offered float64 `json:"offered_qps"`
}

// phase is what one measurement shares between the two pacings: the
// pre-flight scrape, the per-query body, and the summary.
type phase struct {
	cfg    RunnerConfig
	addrs  []string
	before outputBytes
	start  time.Time

	mu       sync.Mutex // guards res (its sketch included), reuseSum and the record writer
	res      Result
	reuseSum float64
	record   *json.Encoder
}

// begin validates cfg, the pacing and the stream — the wire carries VM
// predicates only — and fails fast, before starting the clock, if any server
// is unreachable or answers the scrape that seeds the reuse delta with an
// application-level error.
func begin(cfg RunnerConfig, items []Item, pacing Pacing, offered float64) (*phase, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pacing.Validate(); err != nil {
		return nil, err
	}
	for _, it := range items {
		if _, ok := it.Meta.(vm.Meta); !ok {
			return nil, fmt.Errorf("load: item %d: the wire carries VM queries, not %T", it.Seq, it.Meta)
		}
	}
	cfg = cfg.withDefaults()
	p := &phase{cfg: cfg, addrs: cfg.addrs()}
	p.res = Result{Offered: offered, Latency: stats.NewSketch(cfg.RelErr)}
	var err error
	if p.before, err = p.scrape(); err != nil {
		return nil, err
	}
	if cfg.Record != nil {
		p.record = json.NewEncoder(cfg.Record)
	}
	p.start = time.Now()
	return p, nil
}

// query sends one query on c and accounts for its answer under the phase
// lock: the tallies, the latency sample of a post-warmup query, the -record
// line. It returns the transport or server error, if any.
func (p *phase) query(c *netproto.Client, it Item) error {
	m := it.Meta.(vm.Meta) // begin checked
	req := &netproto.Request{
		Slide: m.DS,
		X0:    m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
		Zoom: m.Zoom, Op: m.Op.String(),
		OmitPixels: true,
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	lat := time.Since(t0)
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	measured := err == nil && it.At >= p.cfg.Warmup
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.Sent++
	if err != nil {
		p.res.Errors++
	} else {
		p.res.Completed++
		if measured {
			p.res.Measured++
			p.res.Latency.Add(float64(lat.Microseconds()) / 1000)
			p.reuseSum += resp.ReusedFrac
		}
	}
	if p.record != nil {
		rec := record{
			Seq: it.Seq, User: it.User,
			AtMS:    float64(it.At.Microseconds()) / 1000,
			LatMS:   float64(lat.Microseconds()) / 1000,
			Warmup:  it.At < p.cfg.Warmup,
			Offered: p.res.Offered,
		}
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.WaitMS = resp.WaitMS
			rec.Reused = resp.ReusedFrac
		}
		p.record.Encode(&rec)
	}
	return err
}

// finish summarizes the phase once every query has been answered. The delta
// of the servers' output-byte counters over the phase gives the byte-weighted
// reuse fraction; a failed re-scrape costs only that field.
func (p *phase) finish() Result {
	res := p.res
	res.Elapsed = time.Since(p.start)
	res.MeasuredTime = measuredWindow(res.Elapsed, p.cfg.Warmup)
	if res.MeasuredTime > 0 {
		res.AchievedQPS = float64(res.Measured) / res.MeasuredTime.Seconds()
	}
	if res.Measured > 0 {
		res.MeanReuse = p.reuseSum / float64(res.Measured)
	}
	if after, err := p.scrape(); err == nil {
		res.ServerReusedFrac = reusedFracDelta(p.before, after)
	}
	return res
}

// Run replays the stream against the server under pacing p and collects the
// phase's statistics. Open: every arrival is released at its At, however far
// behind the Workers are, and one that finds the queue full is dropped.
// Closed, the paper's driver: every user owns one connection (round-robin
// over the servers), keeps one query in flight, issues its items in order and
// waits p.Think between an answer and the next query; a user whose query
// fails stops alone; Workers and QueueCap do not apply. offered is recorded
// in the result and the JSONL lines; it does not re-time the stream.
func Run(cfg RunnerConfig, items []Item, p Pacing, offered float64) (Result, error) {
	ph, err := begin(cfg, items, p, offered)
	if err != nil {
		return Result{}, err
	}
	var wg sync.WaitGroup
	if p.Closed {
		for u, list := range ByUser(items) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := netproto.NewClient(ph.addrs[u%len(ph.addrs)], ph.cfg.DialTimeout)
				defer conn.Close()
				for q, it := range list {
					if q > 0 && p.Think > 0 {
						time.Sleep(p.Think)
					}
					// Completions set a closed loop's instants: the line
					// records the one the query went out at.
					it.At = time.Since(ph.start)
					if ph.query(conn, it) != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		return ph.finish(), nil
	}

	pools := make([]*netproto.Pool, len(ph.addrs))
	for i, a := range ph.addrs {
		pools[i] = netproto.NewPool(a, ph.cfg.Workers, ph.cfg.DialTimeout)
		defer pools[i].Close()
	}
	queue := make(chan Item, ph.cfg.QueueCap)
	for w := 0; w < ph.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				ph.query(pools[it.Seq%len(pools)].Get(), it) // a failure is tallied in Errors
			}
		}()
	}
	dropped := 0
	for _, it := range items {
		if d := it.At - time.Since(ph.start); d > 0 {
			time.Sleep(d)
		}
		select {
		case queue <- it:
		default:
			dropped++
		}
	}
	close(queue)
	wg.Wait()
	ph.res.Dropped = dropped
	return ph.finish(), nil
}

// outputBytes is the servers' pair of output-byte counters, summed over the
// fleet; the byte-weighted reuse fraction is a delta of two readings.
type outputBytes struct{ reused, computed float64 }

// scrape reads the output-byte counters from every server's METRICS snapshot
// (a router answers with the cluster-wide merge).
func (p *phase) scrape() (outputBytes, error) {
	var sum outputBytes
	for _, a := range p.addrs {
		c := netproto.NewClient(a, p.cfg.DialTimeout)
		resp, err := c.Do(&netproto.Request{Verb: netproto.VerbMetrics, MetricsSnapshot: true})
		c.Close()
		switch {
		case err != nil:
		case resp.Err != "":
			err = fmt.Errorf("server error: %s", resp.Err)
		case resp.MetricsSnap == nil:
			err = errors.New("METRICS answered without the snapshot the reuse counters are read from")
		}
		if err != nil {
			return outputBytes{}, fmt.Errorf("load: probing %s: %w", a, err)
		}
		sum.reused += resp.MetricsSnap.Value("mqsched_server_reused_output_bytes_total")
		sum.computed += resp.MetricsSnap.Value("mqsched_server_computed_output_bytes_total")
	}
	return sum, nil
}

// measuredWindow is the post-warmup portion of the phase. A phase that ends
// before the warmup elapses (server died, stream exhausted early) reports a
// zero window rather than a negative one, which would flip AchievedQPS's
// sign downstream.
func measuredWindow(elapsed, warmup time.Duration) time.Duration {
	return max(elapsed-warmup, 0)
}

// reusedFracDelta computes reused / (reused + computed) output bytes from two
// scrapes taken before and after the phase.
func reusedFracDelta(before, after outputBytes) float64 {
	reused := after.reused - before.reused
	computed := after.computed - before.computed
	if total := reused + computed; total > 0 {
		return reused / total
	}
	return 0
}
