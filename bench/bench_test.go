package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"mqsched/internal/traceviz"
)

// manifest is BENCHMARK.json at the root of the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []boundedDef `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness's own
// tables in step: same workloads, same metrics, same units, directions and
// bounds, within the limits the benchmark contract sets.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, harness {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) || len(endToEnd) > 16 {
		t.Errorf("end_to_end: manifest %+v, harness %+v, limit 16", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) || len(perLayer) > 128 {
		t.Errorf("per_layer: manifest %+v, harness %+v, limit 128", m.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(e2eDefs(), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

// TestStreamsFollowTheSeed pins that a seed determines its stream and that
// another seed gives another stream.
func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w.stream(1), 500), streamHash(w.stream(1), 500), streamHash(w.stream(2), 500)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}

// TestQuickPasses runs every workload's end-to-end pass and per-layer pass at
// smoke-test scale and checks that each reports every metric the manifest
// lists, with no failed query, and that the traced pass left a Chrome trace
// the mqviz loader reads back with both the server's and the harness's side
// of the queries in it.
func TestQuickPasses(t *testing.T) {
	m := readManifest(t)
	errOut = io.Discard
	defer func() { errOut = os.Stderr }()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{e2eDefs(), m.PerLayer} {
			o := options{seed: 1, seconds: 1, trace: trace, quick: true, results: t.TempDir()}
			rep, n, err := runPass(w, o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || n < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d n_measured=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, n)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, manifest lists %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := rep.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s missing or in unit %q, want %q", w.name, trace, d.Name, got.Unit, d.Unit)
				}
			}
			if trace == 0 {
				for _, d := range defs {
					if rep.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, rep.Metrics[d.Name].Value)
					}
				}
				continue
			}
			spanSourced := []string{"datastore.reuse_ms_mean", "pagespace.io_ms_mean", "vm.compute_ms_mean", "trace.spans_per_query"}
			if w.name == "paper_sim" {
				// Virtual time: a data store lookup costs nothing, a disk read does.
				spanSourced[0] = "disk.disk_ms_mean"
			}
			for _, s := range spanSourced {
				if rep.Metrics[s].Value <= 0 {
					t.Errorf("%s: span-sourced metric %s is empty", w.name, s)
				}
			}
			f, err := os.Open(filepath.Join(o.results, w.name+"-seed1.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			c, err := traceviz.Load(w.name, f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: Chrome trace does not load: %v", w.name, err)
			}
			server, client := 0, 0
			for _, b := range traceviz.Breakdown(c) {
				if b.Strategy == clientStrategy {
					client += b.Queries
				} else {
					server += b.Queries
				}
			}
			if server == 0 {
				t.Errorf("%s: trace has no server-side query trees", w.name)
			}
			if w.name != "paper_sim" && client == 0 {
				t.Errorf("%s: trace has no harness-side spans", w.name)
			}
		}
	}
}

// TestCorruptReplyFailsTheRun damages one reply inside the oracle pre-pass,
// in process and through the router, and expects the gate to close.
func TestCorruptReplyFailsTheRun(t *testing.T) {
	errOut = io.Discard
	corruptReply = 3
	defer func() { errOut, corruptReply = os.Stderr, -1 }()
	for _, name := range []string{"browse_uptime", "browse_wire"} {
		w, _ := workloadByName(name)
		rep, _, err := runPass(w, options{seed: 1, seconds: 1, quick: true, results: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted reply passed: correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedDef{metricDef{Name: "lat", Better: "lower"}, 0.10}
	higher := boundedDef{metricDef{Name: "qps", Better: "higher"}, 0.10}
	for _, c := range []struct {
		d    boundedDef
		a, b side
		want string
	}{
		{lower, side{100}, side{105}, "same"},
		{lower, side{100}, side{120}, "worse"},
		{lower, side{100}, side{80}, "better"},
		{higher, side{100}, side{80}, "worse"},
		{higher, side{100}, side{120}, "better"},
		{lower, side{100, 130}, side{150, 151}, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
