// Command mqload is the load runner for a live mqserver or mqrouter: one
// stream type and one replayer (internal/load), two pacings.
//
// Open loop (the default): a skewed query stream (Zipfian dataset and hotspot
// popularity, pan/zoom user sessions) offered over netproto at a sweep of
// arrival rates, reporting throughput-vs-offered-load with p50/p95/p99/max
// latency per strategy. Arrivals come from a clock, so queueing delay under
// overload is measured instead of being absorbed by client back-pressure.
//
// Closed loop (-clients N): the paper's driver program. N emulated clients
// replay load.Clients' browse stream (-queries each, split 8/6/2 over the
// -slides table, seeded by -seed) with one query in flight per client and an
// optional -think time; the run prints one point line in the sweep's format.
// The open-loop flags do not apply and are refused.
//
// Usage:
//
//	mqserver -addr :9123 -policy cnbf &
//	mqload -addr localhost:9123 -rates 25,50,100 -duration 10s -warmup 2s
//	mqload -addr localhost:9123 -clients 8 -queries 16
//
// -addr repeats (or takes a comma-separated list) to round-robin the stream
// across several servers client-side — or point it at one cmd/mqrouter and
// let the cluster route by region affinity instead.
//
// With -record PATH, every point writes one JSON line per item of its stream,
// dropped ones included (arrival offset, send instant, latency, server wait
// and exec, reuse, error), for offline analysis.
// The exit status is non-zero when any point saw a query fail or completed
// none, so a script can use a run as a smoke test of the server behind it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mqsched"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

func main() {
	var addrs addrList
	flag.Var(&addrs, "addr", "mqserver or mqrouter address; repeat the flag or comma-separate to round-robin across servers (default localhost:9123)")
	var (
		slides   = flag.String("slides", "slide1:16384x16384,slide2:16384x16384,slide3:16384x16384", "comma-separated name:WxH slide list (must match the server)")
		users    = flag.Int("users", 1000, "simulated user sessions")
		rates    = flag.String("rates", "25,50,100", "comma-separated offered-load sweep, queries/sec")
		duration = flag.Duration("duration", 10*time.Second, "measured phase length per rate")
		warmup   = flag.Duration("warmup", 2*time.Second, "cache warmup excluded from statistics, per rate")
		arrival  = flag.String("arrival", "poisson", "arrival process: constant, poisson, burst")
		bFactor  = flag.Float64("burst-factor", 4, "burst on-phase rate multiplier")
		bOn      = flag.Duration("burst-on", time.Second, "burst on-phase length")
		bOff     = flag.Duration("burst-off", 4*time.Second, "burst off-phase length")
		zipfDS   = flag.Float64("zipf-dataset", 1.1, "Zipf exponent of dataset popularity (0 = uniform)")
		zipfHot  = flag.Float64("zipf-hotspot", 1.2, "Zipf exponent of hotspot popularity (0 = uniform)")
		zipfUser = flag.Float64("zipf-user", 0.6, "Zipf exponent of per-user activity (0 = uniform)")
		hotspots = flag.Int("hotspots", 4, "shared hotspots per dataset")
		outSide  = flag.Int64("outside", 512, "output image edge in pixels")
		opName   = flag.String("op", "subsample", "processing function")
		seed     = flag.Int64("seed", 1, "generator and arrival seed")
		workers  = flag.Int("workers", 64, "bounded worker pool / connection count")
		queueCap = flag.Int("queue", 65536, "arrival buffer; overflow counts as dropped")
		recPath  = flag.String("record", "", "stream per-query JSON lines to this path")
		clients  = flag.Int("clients", 0, "closed loop: replay the paper's driver workload with this many clients, one query in flight each, in place of the rate sweep")
		queries  = flag.Int("queries", 16, "closed loop: queries per client")
		think    = flag.Duration("think", 0, "closed loop: client think time between an answer and the next query")
	)
	flag.Parse()

	if len(addrs) == 0 {
		addrs = addrList{"localhost:9123"}
	}
	op, err := vm.ParseOp(*opName)
	if err != nil {
		usageError(err)
	}
	proc, err := load.ParseProcess(*arrival)
	if err != nil {
		usageError(err)
	}
	sweep, err := parseRates(*rates)
	if err != nil {
		usageError(err)
	}
	specs, err := mqsched.ParseSlides(*slides)
	if err != nil {
		usageError(err)
	}
	switch {
	case flag.NArg() > 0:
		usageError(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *duration <= 0:
		usageError(fmt.Errorf("duration %v must be positive", *duration))
	case *warmup < 0:
		usageError(fmt.Errorf("warmup %v must not be negative", *warmup))
	}
	if err := closedLoopUsage(flag.CommandLine, *clients, *queries, *think); err != nil {
		usageError(err)
	}

	genCfg := load.GenConfig{
		Users:              *users,
		DatasetZipfS:       *zipfDS,
		HotspotsPerDataset: *hotspots,
		HotspotZipfS:       *zipfHot,
		UserZipfS:          *zipfUser,
		OutputSide:         *outSide,
		Op:                 op,
		Seed:               *seed,
	}
	if err := genCfg.Validate(); err != nil {
		usageError(err)
	}
	runCfg := load.RunnerConfig{
		Addrs:    addrs,
		Workers:  *workers,
		QueueCap: *queueCap,
		Warmup:   *warmup,
	}
	if err := runCfg.Validate(); err != nil {
		usageError(err)
	}
	var record *json.Encoder
	if *recPath != "" {
		f, err := os.Create(*recPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		record = json.NewEncoder(f)
	}
	table := mqsched.NewSlideTable(specs...)

	// One point per load.Run; a point in which a query failed or none was
	// answered makes the exit status non-zero once every point has printed.
	ok := true
	point := func(items []load.Item, pacing load.Pacing, rate float64) {
		s, done, err := load.Run(runCfg, items, pacing)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  offered %6.1f qps: achieved %6.1f qps, p50 %7.1fms p95 %7.1fms p99 %7.1fms max %7.1fms, reuse %2.0f%%, %d errors, %d dropped\n",
			rate, s.AchievedQPS, s.P50*1000, s.P95*1000, s.P99*1000, s.MaxResponse*1000, s.AvgOverlap*100, s.Errors, s.Dropped)
		if record != nil {
			for _, d := range done {
				if err := record.Encode(lineOf(d)); err != nil {
					fatal(err)
				}
			}
		}
		ok = ok && s.Errors == 0 && s.Queries > 0
	}
	if *clients > 0 {
		// Every query is measured: the paper's driver has no warmup phase.
		runCfg.Warmup = 0
		fmt.Printf("mqload: %s, closed loop, %d clients x %d queries, think %s\n",
			strings.Join(addrs, ","), *clients, *queries, *think)
		point(load.Clients(load.GenConfig{
			Pattern: load.Browse, Users: *clients, Queries: *queries,
			OutputSide: *outSide, Op: op, Seed: *seed,
		}, table), load.Closed(*think), 0)
	} else {
		fmt.Printf("mqload: %s, %d users, %s arrivals, sweep %v qps, %s + %s warmup per rate\n",
			strings.Join(addrs, ","), *users, proc, sweep, *duration, *warmup)
		for _, rate := range sweep {
			ar := load.ArrivalConfig{
				Process: proc, Rate: rate,
				BurstFactor: *bFactor, BurstOn: *bOn, BurstOff: *bOff,
				Seed: *seed,
			}
			if err := ar.Validate(); err != nil {
				usageError(err)
			}
			n := int(rate * (*warmup + *duration).Seconds())
			if n < 1 {
				usageError(fmt.Errorf("rate %v over %v yields no queries", rate, *warmup+*duration))
			}
			point(load.Build(genCfg, table, ar, n), load.Open, rate)
		}
	}
	if !ok {
		fatal(fmt.Errorf("queries failed or none completed"))
	}
}

// closedLoopFlags are the flags that mean something to the closed-loop
// replay. Any other flag given explicitly next to -clients describes the rate
// sweep or its generator, and is a usage error rather than silently ignored.
var closedLoopFlags = map[string]bool{
	"clients": true, "queries": true, "think": true,
	"addr": true, "slides": true, "outside": true, "op": true, "seed": true, "record": true,
}

// closedLoopUsage reports the first usage error among -clients/-queries/-think
// and the flags set beside them on fs (which must have been parsed).
func closedLoopUsage(fs *flag.FlagSet, clients, queries int, think time.Duration) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case clients > 0 && !closedLoopFlags[f.Name]:
			err = fmt.Errorf("-%s belongs to the open-loop sweep and cannot be combined with -clients", f.Name)
		case clients == 0 && (f.Name == "queries" || f.Name == "think"):
			err = fmt.Errorf("-%s needs -clients", f.Name)
		}
	})
	switch {
	case err != nil:
		return err
	case clients < 0:
		return fmt.Errorf("-clients %d: cannot be negative", clients)
	case queries < 1:
		return fmt.Errorf("-queries %d: need at least one query per client", queries)
	case think < 0:
		return fmt.Errorf("-think %v: think time cannot be negative", think)
	}
	return nil
}

// line is one -record line: an item of the stream and what became of it, in
// milliseconds on the point's clock. A line is warmup exactly when its at_ms
// is below -warmup.
type line struct {
	Seq    int     `json:"seq"`
	User   int     `json:"user"`
	AtMS   float64 `json:"at_ms"`
	SentMS float64 `json:"sent_ms"`
	LatMS  float64 `json:"lat_ms"`
	WaitMS float64 `json:"wait_ms"`
	ExecMS float64 `json:"exec_ms"`
	Reused float64 `json:"reused"`
	Err    string  `json:"err,omitempty"`
}

func lineOf(d load.Done) line {
	ms := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }
	return line{
		Seq: d.Seq, User: d.User, AtMS: ms(d.At), SentMS: ms(d.Sent), LatMS: ms(d.Received - d.Sent),
		WaitMS: ms(d.Wait), ExecMS: ms(d.Exec), Reused: d.ReusedFrac, Err: d.Err,
	}
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", part, err)
		}
		if r <= 0 {
			return nil, fmt.Errorf("rate %v must be positive", r)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty rate sweep")
	}
	return out, nil
}

// addrList collects -addr values: the flag repeats, and each value may
// itself be a comma-separated list. Blank entries are usage errors.
type addrList []string

func (a *addrList) String() string { return strings.Join(*a, ",") }

func (a *addrList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("empty server address in -addr %q", v)
		}
		for _, prev := range *a {
			if prev == part {
				return fmt.Errorf("duplicate server address %q", part)
			}
		}
		*a = append(*a, part)
	}
	return nil
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "mqload:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqload:", err)
	os.Exit(1)
}
