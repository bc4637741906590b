// Command bench is the repository's one benchmark: four workloads that
// between them cover the whole query path, each reporting the same
// end-to-end metrics (tracing off) and, in a separate pass, per-layer metrics
// taken from outside the layers — counters they already export, spans the
// program already records, and direct probes of their public APIs.
//
//	bash bench/run.sh --workload scan_mem --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1            # the whole suite, one subprocess per pass
//	bash bench/run.sh --sets 2            # twice, and fail if the sets disagree
//	bash bench/run.sh compare a.json b.json
//
// See README.md in this directory for the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"mqsched"
	"mqsched/internal/stats"
)

// errOut takes diagnostics; standard output carries only metrics.
var errOut io.Writer = os.Stderr

// verbose adds every epoch of an end-to-end pass to the diagnostics.
var verbose bool

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a single pass ends its output with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	phase    string
	quick    bool
	sets     int
	results  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	// One processor for every pass. The machine is a two-vCPU guest on a
	// shared host: with a second processor the Go scheduler hands goroutines
	// from one vCPU to the other, and what such a handoff costs depends on the
	// host's other tenants, not on the program (identical simulated runs then
	// range from 400 to 740 queries/s; on one processor they stay within 3 %).
	runtime.GOMAXPROCS(1)
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one pass of this workload and end with one JSON line; empty runs the suite")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated stream")
	flag.Float64Var(&o.seconds, "seconds", 28, "how long a pass may take: an end-to-end pass repeats its round of epochs while another fits (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (reference, traced and probe phases)")
	flag.StringVar(&o.phase, "phase", "", "with -workload, run only one phase: e2e, traced or probe")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test scale: one input, two rounds, a tenth of every count")
	flag.BoolVar(&verbose, "v", false, "print every epoch of an end-to-end pass to standard error")
	flag.IntVar(&o.sets, "sets", 1, "suite repetitions; with 2 or more, fail if an end-to-end metric differs between sets by more than its bound")
	flag.StringVar(&o.results, "results", filepath.Join("bench", "results"), "directory for Chrome traces and suite results")
	flag.Parse()
	if o.quick {
		o.seconds = 1
	}
	if o.workload == "" {
		os.Exit(suiteMain(o))
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(errOut, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	rep, n, err := runPass(w, o)
	if err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep, n)
	if !rep.Correct {
		os.Exit(1)
	}
}

// printReport prints every metric by name with its unit, the measured query
// count, and last the JSON line.
func printReport(w io.Writer, rep report, n int) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "n_measured %d\n", n)
	line, _ := json.Marshal(rep)
	fmt.Fprintf(w, "%s\n", line)
}

// runPass runs one workload's end-to-end pass (trace 0) or its per-layer
// phases (trace 1) in this process.
func runPass(w workload, o options) (report, int, error) {
	phase := o.phase
	if phase == "" {
		phase = "e2e"
		if o.trace != 0 {
			phase = "layers"
		}
	}
	scale := 1.0
	if o.quick {
		scale = 0.1
	}
	rc := runCfg{seed: o.seed, seconds: o.seconds, scale: scale}
	values := map[string]float64{}
	rep := report{Metrics: map[string]metricValue{}}
	n := 0
	account := func(r *result) {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}

	if phase == "e2e" {
		r, err := w.run(rc)
		if err != nil {
			return rep, 0, err
		}
		account(r)
		n = len(r.samples())
		endToEndMetrics(r, values)
	}
	if phase == "layers" || phase == "traced" {
		// Fixed counts, so that these passes do identical work on every
		// commit and exact counters repeat. The first pass is the untraced
		// reference the traced one is compared with.
		rc.count = max(256, int(float64(w.layerCount)*scale))
		ref, err := w.run(rc)
		if err != nil {
			return rep, 0, err
		}
		account(ref)
		n = len(ref.samples())
		referenceMetrics(ref, values)

		rc.traced = true
		tr, err := w.run(rc)
		if err != nil {
			return rep, 0, err
		}
		account(tr)
		spanMetrics(w.name, tr.spans, tr.dropped, values)
		values["trace.overhead_frac"] = 1 - ratio(float64(len(tr.samples()))/tr.use().wall, float64(n)/ref.use().wall)
		path := filepath.Join(o.results, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
		info := mqsched.BuildInfo()
		info["workload"] = w.name
		if err := writeChrome(path, tr.spans, tr.dropped, info); err != nil {
			return rep, 0, err
		}
	}
	if phase == "layers" || phase == "probe" {
		runProbes(w.stream(o.seed), mqsched.NewSlideTable(slides(w.slideSide)...), scale, values)
	}

	defs := perLayer
	if phase == "e2e" {
		defs = e2eDefs()
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && phase == "layers" {
			v = 0 // a layer this workload does not reach
		} else if !ok {
			continue
		}
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	rep.Attempted = max(rep.Attempted, 1)
	rep.Correct = rep.Failed == 0
	return rep, n, nil
}

// endToEndMetrics derives the end-to-end metrics from an untraced pass of
// several rounds. A timing is taken per input from the fastest of its
// repeats — identical work, so the fastest is the one the machine's other
// tenants disturbed least — and then averaged over the inputs. Allocation
// does not depend on the neighbours and takes the median of the repeats.
func endToEndMetrics(r *result, out map[string]float64) {
	var byInput [][]epoch
	for _, e := range r.epochs {
		for len(byInput) <= e.input {
			byInput = append(byInput, nil)
		}
		byInput[e.input] = append(byInput[e.input], e)
	}
	// overInputs averages, over the inputs that have f at all, pick of f over
	// the input's repeats.
	overInputs := func(pick func([]float64) float64, f func(e epoch) float64) float64 {
		var perInput []float64
		for _, repeats := range byInput {
			var xs []float64
			for _, e := range repeats {
				if x := f(e); x > 0 {
					xs = append(xs, x)
				}
			}
			if len(xs) > 0 {
				perInput = append(perInput, pick(xs))
			}
		}
		return stats.Mean(perInput)
	}
	fastest := slices.Min[[]float64]
	perQuery := func(e epoch, x float64) float64 { return ratio(x, float64(len(e.samples))) }

	out["setup_s"] = overInputs(fastest, func(e epoch) float64 { return e.setupS })
	out["qps"] = ratio(1, overInputs(fastest, func(e epoch) float64 { return perQuery(e, e.use.wall) }))
	out["lat_p50_ms"] = overInputs(fastest, func(e epoch) float64 { return median(latencies(e.samples)) })
	out["cpu_ms_per_query"] = overInputs(fastest, func(e epoch) float64 { return perQuery(e, e.use.cpu*1e3) })
	out["alloc_kb_per_query"] = overInputs(median, func(e epoch) float64 { return perQuery(e, float64(e.use.allocBytes)/1024) })
	out["peak_rss_mb"] = peakRSSMB()
	if verbose {
		for i, repeats := range byInput {
			for _, e := range repeats {
				fmt.Fprintf(errOut, "input %d: setup %.3f s, %d queries, %.1f qps, p50 %.3f ms, cpu %.3f ms/query\n",
					i, e.setupS, len(e.samples), ratio(float64(len(e.samples)), e.use.wall), median(latencies(e.samples)), perQuery(e, e.use.cpu*1e3))
			}
		}
	}
}

// referenceMetrics derives the H- and C-sourced layer metrics from the
// untraced counted pass.
func referenceMetrics(r *result, out map[string]float64) {
	samples, use := r.samples(), r.use()
	lat := latencies(samples)
	out["load.lat_p95_ms"] = stats.Percentile(lat, 95)
	out["load.lat_p99_ms"] = stats.Percentile(lat, 99)
	// Drift: the median latency of the last quarter of the window over that
	// of the first. A system that does not age reads 1.
	if q := len(samples) / 4; q > 0 {
		out["load.drift_ratio"] = ratio(median(lat[len(lat)-q:]), median(lat[:q]))
	}
	var wait, exec float64
	for _, s := range samples {
		wait += s.wait
		exec += s.exec
	}
	out["server.wait_ms_mean"] = ratio(wait, float64(len(samples)))
	out["server.exec_ms_mean"] = ratio(exec, float64(len(samples)))
	counterMetrics(r.ctr, out)
	for k, v := range r.layer {
		out[k] = v
	}
	out["go.gc_cycles"] = float64(use.gcCycles)
	out["go.gc_pause_ms_total"] = float64(use.gcPauseNS) / 1e6
	out["go.mallocs_per_query"] = ratio(float64(use.mallocs), float64(len(samples)))
	out["go.heap_end_mb"] = use.heapEndMB
	out["go.goroutines_end"] = float64(use.goroutinesEnd)
}

// ---- suite ----

// workloadResult is one workload's numbers within a set.
type workloadResult struct {
	NMeasured int                    `json:"n_measured"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// suiteResult is the file a suite run writes and compare reads.
type suiteResult struct {
	Env     environment                 `json:"env"`
	Seed    int64                       `json:"seed"`
	Seconds float64                     `json:"seconds"`
	Sets    []map[string]workloadResult `json:"sets"`
	// Claim is what the run asserts about performance. The benchmark itself
	// asserts nothing.
	Claim *string `json:"claim"`
}

// childPass runs one pass in a subprocess of its own, so that no workload
// inherits another's heap, goroutines or page cache.
func childPass(o options, name string, traceOn int) (report, int, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, 0, err
	}
	args := []string{
		"--workload", name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(traceOn), "--results", o.results,
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = errOut
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, 0, fmt.Errorf("%s trace=%d: no result (%v)", name, traceOn, runErr)
	}
	n := 0
	for _, l := range lines {
		fmt.Sscanf(l, "n_measured %d", &n)
	}
	return rep, n, nil
}

func suiteMain(o options) int {
	sr := suiteResult{Env: readEnvironment(), Seed: o.seed, Seconds: o.seconds}
	failed := false
	for set := 0; set < o.sets; set++ {
		results := map[string]workloadResult{}
		for _, w := range workloads {
			e2e, n, err := childPass(o, w.name, 0)
			if err != nil {
				fmt.Fprintln(errOut, "bench:", err)
				return 1
			}
			layers, _, err := childPass(o, w.name, 1)
			if err != nil {
				fmt.Fprintln(errOut, "bench:", err)
				return 1
			}
			wr := workloadResult{
				NMeasured: n,
				Attempted: e2e.Attempted + layers.Attempted,
				Failed:    e2e.Failed + layers.Failed,
				EndToEnd:  e2e.Metrics,
				PerLayer:  layers.Metrics,
			}
			results[w.name] = wr
			failed = failed || wr.Failed > 0
			fmt.Printf("== set %d  %s  n_measured=%d  failed_frac=%g\n", set+1, w.name, n, ratio(float64(wr.Failed), float64(wr.Attempted)))
			for _, d := range endToEnd {
				fmt.Printf("  %-34s %16.6g %s\n", d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
			}
			for _, d := range perLayer {
				fmt.Printf("  %-34s %16.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
			}
		}
		sr.Sets = append(sr.Sets, results)
	}
	path := filepath.Join(o.results, fmt.Sprintf("suite-seed%d.json", o.seed))
	if err := writeJSON(path, sr); err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		return 1
	}
	fmt.Println("wrote", path)
	if o.sets > 1 {
		first, rest := sr, sr
		first.Sets, rest.Sets = sr.Sets[:1], sr.Sets[1:]
		if _, differs := printComparison(os.Stdout, first, rest); differs {
			fmt.Println("sets disagree by more than a bound")
			failed = true
		}
	}
	fmt.Println(`"claim": null`)
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
