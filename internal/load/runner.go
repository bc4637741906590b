package load

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mqsched/internal/netproto"
	"mqsched/internal/vm"
)

// RunnerConfig configures one measurement phase against a live server (or
// several — a fleet addressed directly, or one mqrouter), whichever way Run
// is told to pace it.
type RunnerConfig struct {
	// Addrs are the servers the stream is offered to: queries round-robin
	// across them and the reuse scrape sums every server's counters.
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
	// statistics (they still run, heating the caches). Open pacing only:
	// closed users ignore the arrival instants a warmup is measured by.
	Warmup time.Duration
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
	return c
}

// Validate reports the first configuration error.
func (c RunnerConfig) Validate() error {
	for _, a := range c.Addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("load: empty server address in Addrs")
		}
	}
	switch {
	case len(c.Addrs) == 0:
		return fmt.Errorf("load: runner needs a server address")
	case c.Workers < 0:
		return fmt.Errorf("load: workers %d < 0", c.Workers)
	case c.QueueCap < 0:
		return fmt.Errorf("load: queue capacity %d < 0", c.QueueCap)
	case c.Warmup < 0:
		return fmt.Errorf("load: warmup %v < 0", c.Warmup)
	}
	return nil
}

// phase is what one measurement shares between the two pacings: the
// pre-flight scrape, the clock, and the records in completion order.
type phase struct {
	cfg    RunnerConfig
	before outputBytes
	start  time.Time

	mu   sync.Mutex // guards done
	done []Done
}

// begin validates cfg, the pacing and the stream — the wire carries VM
// predicates only — and fails fast, before starting the clock, if any server
// is unreachable or answers the scrape that seeds the reuse delta with an
// application-level error.
func begin(cfg RunnerConfig, items []Item, pacing Pacing) (*phase, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pacing.Validate(); err != nil {
		return nil, err
	}
	if pacing.Closed && cfg.Warmup > 0 {
		return nil, fmt.Errorf("load: warmup %v under closed pacing would measure nothing: closed users ignore the arrival instants a warmup is measured by", cfg.Warmup)
	}
	for _, it := range items {
		if _, ok := it.Meta.(vm.Meta); !ok {
			return nil, fmt.Errorf("load: item %d: the wire carries VM queries, not %T", it.Seq, it.Meta)
		}
	}
	cfg = cfg.withDefaults()
	p := &phase{cfg: cfg, done: make([]Done, 0, len(items))}
	var err error
	if p.before, err = p.scrape(); err != nil {
		return nil, err
	}
	p.start = time.Now()
	return p, nil
}

// add appends one record.
func (p *phase) add(d Done) {
	p.mu.Lock()
	p.done = append(p.done, d)
	p.mu.Unlock()
}

// query sends one query on c and records its answer, reporting whether it
// failed.
func (p *phase) query(c *netproto.Client, it Item) (failed bool) {
	m := it.Meta.(vm.Meta) // begin checked
	d := Done{Item: it, Sent: time.Since(p.start)}
	resp, err := c.Do(&netproto.Request{
		Slide: m.DS,
		X0:    m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
		Zoom: m.Zoom, Op: m.Op.String(),
		OmitPixels: true,
	})
	d.Received = time.Since(p.start)
	switch {
	case err != nil:
		d.Err = err.Error()
	case resp.Err != "":
		d.Err = resp.Err
	default:
		d.Wait = time.Duration(resp.WaitMS * float64(time.Millisecond))
		d.Exec = time.Duration(resp.ExecMS * float64(time.Millisecond))
		d.ReusedFrac = resp.ReusedFrac
	}
	p.add(d)
	return d.Err != ""
}

// Run replays the stream against the server under pacing p and returns its
// Summary and one record per item, in completion order. Open: every arrival
// is released at its At, however far behind the Workers are, and one that
// finds the queue full is dropped. Closed, the paper's driver: every user
// owns one connection (round-robin over the servers), keeps one query in
// flight, issues its items in order and waits p.Think between an answer and
// the next query; a user whose query fails sends nothing further; Workers and
// QueueCap do not apply. The delta of the servers' output-byte counters over
// the phase gives ReusedBytesFrac; a failed re-scrape costs only that field.
func Run(cfg RunnerConfig, items []Item, p Pacing) (Summary, []Done, error) {
	ph, err := begin(cfg, items, p)
	if err != nil {
		return Summary{}, nil, err
	}
	addrs := ph.cfg.Addrs
	var wg sync.WaitGroup
	if p.Closed {
		for u, list := range ByUser(items) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := netproto.NewClient(addrs[u%len(addrs)], ph.cfg.DialTimeout)
				defer conn.Close()
				for q, it := range list {
					if q > 0 && p.Think > 0 {
						time.Sleep(p.Think)
					}
					if ph.query(conn, it) {
						for _, rest := range list[q+1:] {
							ph.add(Done{Item: rest, Err: ErrNotSent})
						}
						return
					}
				}
			}()
		}
	} else {
		pools := make([]*netproto.Pool, len(addrs))
		for i, a := range addrs {
			pools[i] = netproto.NewPool(a, ph.cfg.Workers, ph.cfg.DialTimeout)
			defer pools[i].Close()
		}
		queue := make(chan Item, ph.cfg.QueueCap)
		for w := 0; w < ph.cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range queue {
					ph.query(pools[it.Seq%len(pools)].Get(), it) // a failure is in its record
				}
			}()
		}
		for _, it := range items {
			if d := it.At - time.Since(ph.start); d > 0 {
				time.Sleep(d)
			}
			select {
			case queue <- it:
			default:
				ph.add(Done{Item: it, Err: ErrDropped})
			}
		}
		close(queue)
	}
	wg.Wait()
	s := Summarize(ph.done, p, ph.cfg.Warmup)
	if after, err := ph.scrape(); err == nil {
		s.ReusedBytesFrac = reusedFracDelta(ph.before, after)
	}
	return s, ph.done, nil
}

// outputBytes is the servers' pair of output-byte counters, summed over the
// fleet; the byte-weighted reuse fraction is a delta of two readings.
type outputBytes struct{ reused, computed float64 }

// scrape reads the output-byte counters from every server's METRICS snapshot
// (a router answers with the cluster-wide merge).
func (p *phase) scrape() (outputBytes, error) {
	var sum outputBytes
	for _, a := range p.cfg.Addrs {
		c := netproto.NewClient(a, p.cfg.DialTimeout)
		resp, err := c.Do(&netproto.Request{Verb: netproto.VerbMetrics})
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
