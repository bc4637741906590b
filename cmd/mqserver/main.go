// Command mqserver runs the multi-query Virtual Microscope server live on
// TCP: real goroutines, real pixel data from synthetic slides, the full
// middleware stack (scheduling graph, data store, page space, disk farm
// model). Pair it with cmd/mqclient (single queries, PNG output) or
// cmd/mqload (emulated multi-client load, closed- or open-loop).
//
// Usage:
//
//	mqserver -addr :9123 -slides slide1:16384x16384,slide2:8192x8192 -policy cnbf -threads 4
//
// Observability: every subsystem's counters, gauges, and per-strategy latency
// histograms are served in the Prometheus text format on -metrics
// (default :9124, path /metrics), and over the query connection via the
// METRICS verb. The same listener serves per-query span trees as Chrome
// trace_event JSON on /trace (open in chrome://tracing or Perfetto) and the
// Go runtime profiles on /debug/pprof/. Queries slower than -slowlog (or the
// -slowlog-pct trailing percentile) have their span trees printed to the log
// and are retrievable over the query connection via the TRACE verb.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"mqsched"
	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
	"mqsched/internal/trace"
)

func main() {
	// The server's own defaults where they differ from the library's; every
	// system knob's flag comes from the one binder.
	cfg := mqsched.Config{
		Mode:          mqsched.Real,
		TimeScale:     0.002,
		TraceCapacity: 16384,
	}
	cfg.BindFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":9123", "listen address")
		slides    = bindSlides(flag.CommandLine)
		metricsAt = flag.String("metrics", ":9124", "HTTP listen address for the /metrics, /trace, and /debug/pprof endpoints (empty disables)")
	)
	flag.Parse()
	cfg.TraceSpans = cfg.TraceCapacity > 0

	specs := *slides
	sys, err := mqsched.New(cfg, mqsched.NewSlideTable(specs...))
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAt != "" {
		ml, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("mqserver: metrics on http://%s/metrics, traces on /trace, profiles on /debug/pprof/", ml.Addr())
		go func() {
			log.Fatal(http.Serve(ml, metricsMux(sys.Metrics(), sys.Spans())))
		}()
	}
	if sys.Spans() != nil && (cfg.SlowQueryThreshold > 0 || cfg.SlowQueryPercentile > 0) {
		go logSlowQueries(sys.Spans())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mqserver: policy=%s threads=%d listening on %s", cfg.Policy, cfg.Threads, l.Addr())
	for _, s := range specs {
		log.Printf("  slide %s: %dx%d", s.Name, s.Width, s.Height)
	}
	if err := netproto.Serve(l, sys, log.Printf); err != nil {
		log.Fatal(err)
	}
}

const defaultSlides = "slide1:16384x16384,slide2:16384x16384,slide3:16384x16384"

// bindSlides declares -slides on fs. The spec is parsed as the flag is set,
// so a bad one is a usage error like any other bad flag value.
func bindSlides(fs *flag.FlagSet) *[]mqsched.Slide {
	specs, _ := mqsched.ParseSlides(defaultSlides)
	fs.Func("slides", "comma-separated name:WxH slide list (default "+defaultSlides+")", func(v string) (err error) {
		specs, err = mqsched.ParseSlides(v)
		return err
	})
	return &specs
}

// metricsMux serves the registry in the Prometheus text exposition format,
// the span ring buffer as Chrome trace_event JSON, and the net/http/pprof
// profile endpoints.
func metricsMux(reg *metrics.Registry, spans *trace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("mqserver: /metrics write: %v", err)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := spans.WriteChromeInfo(w, mqsched.BuildInfo()); err != nil {
			log.Printf("mqserver: /trace write: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// logSlowQueries polls the tracer's slow-query log and prints each new
// entry's span tree.
func logSlowQueries(tr *trace.Tracer) {
	var since int64
	for {
		time.Sleep(time.Second)
		for _, e := range tr.SlowEntries(since) {
			log.Printf("mqserver: %s", e.Format())
			if e.Seq > since {
				since = e.Seq
			}
		}
	}
}
