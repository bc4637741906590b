package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
)

// backend is one mqserver the router fans out to: its connection pool, its
// health state, and its share of the router's bookkeeping.
//
// Health is a two-state machine (up / down) driven from two sides. Passively,
// any transport error on a routed query marks the backend down at once — the
// failing query's client still gets its error, but the next query re-routes.
// Actively, the health loop probes with the cheap PING verb: a failed probe
// marks down, and a down backend is re-probed on an exponential backoff until
// a success marks it up again. Mark-down never touches the pool, so queries
// already in flight on the backend drain gracefully rather than being severed.
type backend struct {
	idx  int
	addr string
	pool *netproto.Pool
	// probe is a dedicated connection for health checks, separate from the
	// pool so probes never queue behind slow in-flight queries.
	probe *netproto.Client

	inflight atomic.Int64
	up       atomic.Bool

	mu        sync.Mutex
	backoff   time.Duration
	nextProbe time.Time

	routed    *metrics.Counter
	errors    *metrics.Counter
	markdowns *metrics.Counter
	markups   *metrics.Counter
	healthy   *metrics.Gauge
}

// probeOnce runs one health check: the backend is up when it answers PING
// with its identity.
func (b *backend) probeOnce() bool {
	_, err := b.probe.Ping()
	return err == nil
}

// markDown flips the backend down (idempotently) and schedules the next
// probe: the base interval after a fresh mark-down, doubling up to max while
// the backend stays down.
func (b *backend) markDown(base, max time.Duration, now time.Time) {
	fresh := b.up.CompareAndSwap(true, false)
	b.mu.Lock()
	if fresh || b.backoff == 0 {
		b.backoff = base
	} else {
		b.backoff *= 2
		if b.backoff > max {
			b.backoff = max
		}
	}
	b.nextProbe = now.Add(b.backoff)
	b.mu.Unlock()
	if fresh {
		b.markdowns.Inc()
		b.healthy.Set(0)
	}
}

// markUp flips the backend up and resets the backoff.
func (b *backend) markUp() {
	if b.up.CompareAndSwap(false, true) {
		b.markups.Inc()
		b.healthy.Set(1)
	}
	b.mu.Lock()
	b.backoff = 0
	b.nextProbe = time.Time{}
	b.mu.Unlock()
}

// dueForProbe reports whether the health loop should probe now: an up
// backend always is (cheap liveness), a down one only once its backoff
// expires.
func (b *backend) dueForProbe(now time.Time) bool {
	if b.up.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !now.Before(b.nextProbe)
}

// healthLoop is the router's active checker: every interval it probes each
// due backend and applies the verdict. It exits when stop closes.
func (r *Router) healthLoop(interval time.Duration) {
	defer close(r.healthDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stopHealth:
			return
		case now := <-t.C:
			for _, b := range r.backends {
				if !b.dueForProbe(now) {
					continue
				}
				if b.probeOnce() {
					b.markUp()
				} else {
					b.markDown(interval, r.cfg.MaxBackoff, now)
				}
			}
		}
	}
}
