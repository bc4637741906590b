// Package cluster scales the middleware out horizontally: a front-end
// router speaks the existing netproto wire protocol to clients and fans
// queries across N backend mqserver processes, preserving the semantic-cache
// locality every ranking strategy depends on.
//
// Routing is region-affine, not just dataset-hash: each query maps to a
// backend via consistent hashing over (dataset, coarse spatial cell of the
// query region), so overlapping pan/zoom sessions keep landing on the node
// whose datastore and pagespace already hold their state. A spill policy
// re-routes to the least-loaded healthy backend when the affine target's
// in-flight depth exceeds a knob, trading a little locality for balance
// under hotspots.
//
// The router maintains per-backend connection pools (netproto.Pool), active
// health checks (cheap PING probes with mark-down/backoff/mark-up and
// graceful drain of in-flight queries), and cluster-wide aggregation:
// METRICS merges backend registry snapshots via metrics.Snapshot.Merge, and
// TRACE concatenates backend Chrome exports under per-backend process names
// so mqviz renders the whole cluster in one timeline.
//
// Unmodified mqclient and mqload work against the router unchanged — it is
// just another netproto.Handler (cmd/mqrouter serves it on TCP, and the
// in-process Harness wires router + N live servers for tests and
// BenchmarkClusterSweep).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mqsched"
	"mqsched/internal/geom"
	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
)

// Typed routing errors. Over the wire they travel as Response.Err strings;
// in-process users (the harness, tests) match them with errors.Is.
var (
	// ErrNoBackends means no healthy backend is available to take a query.
	ErrNoBackends = errors.New("cluster: no healthy backends")
	// ErrClosed means the router has been closed and takes no new requests.
	ErrClosed = errors.New("cluster: router closed")
)

// Config configures a Router.
type Config struct {
	// Backends are the mqserver addresses to fan out to (required).
	Backends []string
	// CellSize is the side of the coarse spatial cells the affinity key
	// hashes, in base-resolution pixels (default 4096). A cell no smaller
	// than the slides routes by dataset alone.
	CellSize int64
	// SpillDepth is the affine target's in-flight depth above which a query
	// spills to the least-loaded healthy backend (default 8; negative
	// disables spilling).
	SpillDepth int
	// HealthInterval is the active health checker's probe period (default
	// 2s; negative disables the checker — passive mark-down on query errors
	// still applies, but nothing marks a backend up again).
	HealthInterval time.Duration
	// MaxBackoff caps the re-probe backoff of a down backend (default 30s).
	MaxBackoff time.Duration
	// DialTimeout bounds each backend connection attempt (default 5s).
	DialTimeout time.Duration
	// Logf receives router lifecycle logs (nil discards).
	Logf func(format string, args ...any)
}

// ringReplicas is the number of virtual ring points per backend, and
// poolSize bounds the connection pool per backend.
const (
	ringReplicas = 64
	poolSize     = 8
)

func (c Config) withDefaults() Config {
	if c.CellSize == 0 {
		c.CellSize = 4096
	}
	if c.SpillDepth == 0 {
		c.SpillDepth = 8
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case len(c.Backends) == 0:
		return fmt.Errorf("cluster: no backends configured")
	case d.CellSize < 1:
		return fmt.Errorf("cluster: cell size %d < 1", c.CellSize)
	}
	seen := map[string]bool{}
	for _, a := range c.Backends {
		if a == "" {
			return fmt.Errorf("cluster: empty backend address")
		}
		if seen[a] {
			return fmt.Errorf("cluster: duplicate backend address %q", a)
		}
		seen[a] = true
	}
	return nil
}

// Router fans netproto requests out across the configured backends. It
// implements netproto.Handler; serve it with netproto.ServeHandler.
type Router struct {
	cfg   Config
	ring  *ring
	start time.Time

	backends []*backend
	reg      *metrics.Registry

	spills metrics.Counter

	mu     sync.RWMutex // closed handshake: Answer RLock, Close Lock
	closed bool
	wg     sync.WaitGroup // in-flight Answers; Close drains it

	stopHealth chan struct{}
	healthDone chan struct{}
}

// New assembles a router. Backends start optimistically healthy; the first
// failed query or probe marks them down.
func New(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:        cfg,
		ring:       newRing(len(cfg.Backends), ringReplicas),
		start:      time.Now(),
		reg:        metrics.NewRegistry(),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	r.reg.PublishCounter("mqrouter_spills_total",
		"Queries re-routed off their affine target because its in-flight depth exceeded the spill knob.", &r.spills)
	for i, addr := range cfg.Backends {
		b := &backend{
			idx:   i,
			addr:  addr,
			pool:  netproto.NewPool(addr, poolSize, cfg.DialTimeout),
			probe: netproto.NewClient(addr, cfg.DialTimeout),
		}
		b.up.Store(true)
		b.healthy.Set(1)
		b.publish(r.reg)
		r.backends = append(r.backends, b)
	}
	if cfg.HealthInterval > 0 {
		go r.healthLoop(cfg.HealthInterval)
	} else {
		close(r.healthDone)
	}
	return r, nil
}

// Route picks the backend for one query predicate without sending anything:
// the consistent-hash affine target, or the least-loaded healthy backend
// when the target is over the spill depth. Exposed for tests and for
// embeddings that do their own transport.
func (r *Router) Route(ds string, window geom.Rect) (addr string, spilled bool, err error) {
	b, spilled, err := r.pick(ds, window)
	if err != nil {
		return "", false, err
	}
	return b.addr, spilled, nil
}

func (r *Router) pick(ds string, window geom.Rect) (*backend, bool, error) {
	key := affineKey(r.cfg.CellSize, ds, window)
	idx, ok := r.ring.owner(key, func(i int) bool { return r.backends[i].up.Load() })
	if !ok {
		return nil, false, ErrNoBackends
	}
	target := r.backends[idx]
	if r.cfg.SpillDepth < 0 {
		return target, false, nil
	}
	if target.inflight.Load() < int64(r.cfg.SpillDepth) {
		return target, false, nil
	}
	// Affine target is saturated: spill to the least-loaded healthy backend
	// (which may still be the target itself — then there is nowhere better).
	alt := target
	for _, b := range r.backends {
		if b.up.Load() && b.inflight.Load() < alt.inflight.Load() {
			alt = b
		}
	}
	if alt == target {
		return target, false, nil
	}
	return alt, true, nil
}

// Answer implements netproto.Handler: queries route to one backend,
// METRICS/TRACE aggregate across all healthy backends, PING answers
// locally. A closed router answers ErrClosed.
func (r *Router) Answer(req *netproto.Request, from netproto.ConnInfo) *netproto.Response {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return &netproto.Response{Err: ErrClosed.Error()}
	}
	r.wg.Add(1)
	r.mu.RUnlock()
	defer r.wg.Done()

	switch req.Verb {
	case "", netproto.VerbQuery:
		return r.answerQuery(req)
	case netproto.VerbPing:
		return r.answerPing()
	case netproto.VerbMetrics:
		return r.answerMetrics()
	case netproto.VerbTrace:
		return r.answerTrace(req)
	default:
		return &netproto.Response{Err: fmt.Sprintf("netproto: unknown verb %q", req.Verb)}
	}
}

// answerQuery routes one query to its backend and forwards the exchange: the
// reply's pixels stay in the buffer they were read into until the serving
// loop has written them to the client (netproto.Client.Forward). A
// transport failure marks the backend down (the passive health signal) and
// surfaces as an error response — the open-loop client decides whether to
// retry; the next query re-routes around the dead node.
func (r *Router) answerQuery(req *netproto.Request) *netproto.Response {
	b, spilled, err := r.pick(req.Slide, geom.R(req.X0, req.Y0, req.X1, req.Y1))
	if err != nil {
		return &netproto.Response{Err: err.Error()}
	}
	if spilled {
		r.spills.Inc()
	}
	b.routed.Inc()
	b.inflight.Add(1)
	resp, err := b.pool.Get().Forward(req)
	b.inflight.Add(-1)
	if err != nil {
		b.errors.Inc()
		b.markDown(r.healthBase(), r.cfg.MaxBackoff, time.Now())
		r.cfg.Logf("cluster: backend %s failed mid-query, marked down: %v", b.addr, err)
		return &netproto.Response{Err: fmt.Sprintf("cluster: backend %s: %v", b.addr, err)}
	}
	return resp
}

// healthBase is the initial re-probe delay after a mark-down.
func (r *Router) healthBase() time.Duration {
	if r.cfg.HealthInterval > 0 {
		return r.cfg.HealthInterval
	}
	return 2 * time.Second
}

func (r *Router) answerPing() *netproto.Response {
	bi := mqsched.BuildInfo()
	return &netproto.Response{Ping: &netproto.PingInfo{
		Role:       "router",
		UptimeMS:   float64(time.Since(r.start).Microseconds()) / 1000,
		Version:    bi["version"],
		Go:         bi["go"],
		Strategies: bi["strategies"],
	}}
}

// Registry exposes the router's own metrics (routed/spills/markdowns/...).
// Cluster-wide METRICS responses already merge it with the backends'.
func (r *Router) Registry() *metrics.Registry { return r.reg }

// Stats is a point-in-time summary of the router's routing decisions, read
// from the router's registry counters. Routed and Errors are the sums of the
// per-backend shares (Errors therefore counts every transport error talking
// to a backend, a failed METRICS fan-out included).
type Stats struct {
	Routed, Spilled, Errors int64
	Backends                []BackendStats
}

// BackendStats is one backend's share.
type BackendStats struct {
	Addr               string
	Healthy            bool
	Inflight           int64
	Routed             int64
	Errors             int64
	Markdowns, Markups int64
}

// Stats snapshots the router counters.
func (r *Router) Stats() Stats {
	s := Stats{Spilled: r.spills.Value()}
	for _, b := range r.backends {
		s.Routed += b.routed.Value()
		s.Errors += b.errors.Value()
		s.Backends = append(s.Backends, BackendStats{
			Addr:      b.addr,
			Healthy:   b.up.Load(),
			Inflight:  b.inflight.Load(),
			Routed:    b.routed.Value(),
			Errors:    b.errors.Value(),
			Markdowns: b.markdowns.Value(),
			Markups:   b.markups.Value(),
		})
	}
	return s
}

// Close drains the router: new requests are refused with ErrClosed, the
// health checker stops, every in-flight request runs to completion, and
// only then do the backend pools close. Safe to call more than once.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.healthDone
		return nil
	}
	r.closed = true
	r.mu.Unlock()

	close(r.stopHealth)
	<-r.healthDone
	r.wg.Wait()
	for _, b := range r.backends {
		b.pool.Close()
		b.probe.Close()
	}
	return nil
}
