// Command mqrouter fronts a fleet of mqserver backends with one wire-
// compatible endpoint: unmodified mqclient and mqload point at the router
// and their queries fan out across the cluster.
//
// Routing is region-affine — consistent hashing over (dataset, coarse
// spatial cell) keeps overlapping pan/zoom sessions on the backend whose
// semantic cache already holds their state — with a spill to the least-
// loaded healthy backend when the affine target is saturated. Backends are
// health-checked with cheap PING probes (mark-down with exponential
// backoff, mark-up on recovery, graceful drain of in-flight queries).
//
// Usage:
//
//	mqrouter -addr :9123 -backends host1:9123,host2:9123,host3:9123
//
// The METRICS verb answers cluster-wide (backend registry snapshots merged
// with the router's own routing counters), and TRACE splices every
// backend's Chrome document, span ring or slow-query log alike, into one
// timeline with per-backend process rows — mqviz or mqclient -slowlog
// pointed at the router sees the whole cluster. The same merged snapshot is
// served as Prometheus text over HTTP on -metrics (path /metrics).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mqsched/internal/cluster"
	"mqsched/internal/netproto"
)

func main() {
	var (
		addr      = flag.String("addr", ":9123", "listen address")
		backends  = flag.String("backends", "", "comma-separated backend mqserver addresses (required)")
		cell      = flag.Int64("cell", 4096, "affine cell side in base-resolution pixels (a cell as large as the slides routes by dataset alone)")
		spill     = flag.Int("spill-depth", 8, "in-flight depth at which the affine target spills to the least-loaded backend (negative disables spilling)")
		healthEvr = flag.Duration("health-interval", 2*time.Second, "active PING probe interval (negative disables active checks)")
		maxBack   = flag.Duration("max-backoff", 30*time.Second, "probe backoff cap for down backends")
		dialTO    = flag.Duration("dial-timeout", 5*time.Second, "backend dial timeout")
		metricsAt = flag.String("metrics", ":9124", "HTTP listen address for the cluster-wide /metrics endpoint (empty disables)")
	)
	flag.Parse()

	list, err := splitBackends(*backends)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqrouter: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	router, err := cluster.New(cluster.Config{
		Backends:       list,
		CellSize:       *cell,
		SpillDepth:     *spill,
		HealthInterval: *healthEvr,
		MaxBackoff:     *maxBack,
		DialTimeout:    *dialTO,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	if *metricsAt != "" {
		ml, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("mqrouter: cluster metrics on http://%s/metrics", ml.Addr())
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				resp := router.Answer(&netproto.Request{Verb: netproto.VerbMetrics}, netproto.ConnInfo{})
				if resp.MetricsSnap == nil {
					http.Error(w, resp.Err, http.StatusServiceUnavailable)
					return
				}
				if err := resp.MetricsSnap.WritePrometheus(w); err != nil {
					log.Printf("mqrouter: /metrics write: %v", err)
				}
			})
			log.Fatal(http.Serve(ml, mux))
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mqrouter: cell=%d spill-depth=%d listening on %s", *cell, *spill, l.Addr())
	for i, b := range list {
		log.Printf("  backend %d: %s", i, b)
	}
	if err := netproto.ServeHandler(l, router, log.Printf); err != nil {
		log.Fatal(err)
	}
}

func splitBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-backends is required")
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty backend address in -backends %q", s)
		}
		out = append(out, part)
	}
	return out, nil
}
