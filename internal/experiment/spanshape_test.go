package experiment

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mqsched"
	"mqsched/internal/disk"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// The span-shape pin is the tracing counterpart of golden_test.go: it hashes
// every span of three seeded simulated runs — which query it belongs to,
// what it is, what it hangs under, when it started and ended on the virtual
// clock, and every attribute — so a refactor of how spans travel down the
// read path cannot reparent, drop, rename or retime one without failing
// here. Span IDs are left out (they only order allocation). The hashes were
// recorded on the commit before the read twins were merged; GOLDEN_PRINT=1
// prints them instead of comparing.
//
// The batch run has no group leader that computes a raw remainder next to
// its seed: that is the one case where server/compute's input_bytes was
// wrong (it repeated the seed's bytes), pinned on its own by
// TestBatchLeaderComputeSpanBytes in internal/server.

type spanShapeCase struct {
	name string
	cfg  Config
	want string
}

func spanShapeCases() []spanShapeCase {
	traced := func(c Config) Config {
		c.Seed, c.Clients, c.QueriesPerClient = 1, 8, 3
		c.TraceSpans, c.TraceCapacity = true, 1<<17
		return c
	}
	return []spanShapeCase{
		{"cf/fifo", traced(Config{Policy: "cf", Op: vm.Subsample}),
			"877e5f3a53ac21d903766e73f56dcf514865c7b58ffb22695d755754927f98f4"},
		{"cf/elevator+prefetch", traced(Config{Policy: "cf", Op: vm.Average, PrefetchDepth: 2,
			Config: mqsched.Config{IOSched: disk.SchedElevator}}),
			"24f7bf9937c42a687762ca41a2e3ec32a033d5cdfdb344317a6b3e824d682f61"},
		{"batch", traced(Config{Policy: "batch", Op: vm.Subsample, Batch: true}),
			"6ba9cff98848bc1ed5f54f96887480c45f8f88e0cb6acf4188e3479dee18734e"},
	}
}

// spanShape renders the sorted span tuples of one run and their hash.
func spanShape(spans []trace.Span) (lines []string, hash string) {
	byID := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		parent := "-"
		if s.Parent != 0 {
			p := byID[s.Parent]
			parent = p.Subsystem + "/" + p.Op
		}
		attrs := make([]string, len(s.Attrs))
		for i, a := range s.Attrs {
			attrs[i] = a.String()
		}
		lines = append(lines, fmt.Sprintf("q%d %s/%s <%s [%d,%d] %s",
			s.QueryID, s.Subsystem, s.Op, parent, int64(s.Start), int64(s.End), strings.Join(attrs, " ")))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return lines, fmt.Sprintf("%x", sum)
}

func TestSpanShapePinned(t *testing.T) {
	for _, c := range spanShapeCases() {
		m, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := m.Spans.Dropped(); d != 0 {
			t.Fatalf("%s: ring dropped %d spans; raise TraceCapacity", c.name, d)
		}
		lines, got := spanShape(m.Spans.Spans())
		if printing() {
			fmt.Printf("%s: %d spans, %q\n", c.name, len(lines), got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: span shape %s over %d spans, pinned %s", c.name, got, len(lines), c.want)
		}
	}
}
