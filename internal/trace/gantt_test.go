package trace

import (
	"strings"
	"testing"
	"time"
)

// query builds the spans one query leaves behind: a server/query root from
// submit to complete, its sched/wait child ending at start, and one
// server/block child per blocked range.
func query(id int64, submit, start, complete time.Duration, blocked ...[2]time.Duration) []Span {
	root := uint64(id * 100)
	spans := []Span{
		{ID: root, QueryID: id, Subsystem: SubServer, Op: OpQuery, Start: submit, End: complete},
		{ID: root + 1, Parent: root, QueryID: id, Subsystem: SubSched, Op: OpWait, Start: submit, End: start},
	}
	for i, b := range blocked {
		spans = append(spans, Span{ID: root + 2 + uint64(i), Parent: root, QueryID: id,
			Subsystem: SubServer, Op: OpBlock, Start: b[0], End: b[1]})
	}
	return spans
}

const sec = time.Second

func TestGantt(t *testing.T) {
	// q1: waits 0-2s, executes 2-6s, blocked 3-4s. q2: starts immediately,
	// completes at 4s. Spans arrive in finish order (q2 first).
	spans := append(query(2, 0, 0, 4*sec), query(1, 0, 2*sec, 6*sec, [2]time.Duration{3 * sec, 4 * sec})...)

	g := Gantt(spans, 60)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("gantt:\n%s", g)
	}
	// Rows are ordered by submission, ties by query id.
	if !strings.HasPrefix(lines[1], "q1") || !strings.HasPrefix(lines[2], "q2") {
		t.Fatalf("row order:\n%s", g)
	}
	if !strings.Contains(lines[1], "·") || !strings.Contains(lines[1], "█") || !strings.Contains(lines[1], "x") {
		t.Fatalf("q1 row missing phases: %q", lines[1])
	}
	if strings.Contains(lines[2], "x") {
		t.Fatalf("q2 row should have no blocked phase: %q", lines[2])
	}
	// Tiny width clamps.
	if g := Gantt(spans, 1); g == "" {
		t.Fatal("small-width Gantt empty")
	}
}

func TestGanttEdgeCases(t *testing.T) {
	if got := Gantt(nil, 40); !strings.Contains(got, "no spans") {
		t.Fatalf("empty input: %q", got)
	}
	// Child spans whose root has not finished (or left the ring) draw nothing.
	orphans := query(1, 0, sec, 3*sec)[1:]
	if got := Gantt(orphans, 40); !strings.Contains(got, "no completed") {
		t.Fatalf("no roots: %q", got)
	}
	// A root whose wait span was evicted still renders, as executing
	// throughout.
	_, row, _ := strings.Cut(Gantt(query(1, 0, sec, 3*sec)[:1], 40), "\n")
	if !strings.HasPrefix(row, "q1") || strings.Contains(row, "·") {
		t.Fatalf("missing wait span: %q", row)
	}
}

func TestSummary(t *testing.T) {
	spans := append(query(1, 0, sec, 3*sec, [2]time.Duration{sec, 2 * sec}), query(2, 0, sec, sec)...)
	spans[len(spans)-2].Attrs = []Attr{Str(AttrOutcome, "canceled")}
	if s := Summary(spans); s != "completed=1 canceled=1 blocked=1" {
		t.Fatalf("summary = %q", s)
	}
}

func TestSparkline(t *testing.T) {
	// One bar per value, from zero to the series' own maximum.
	if got := Sparkline([]float64{0, 1, 2, 4, 8}); got != "▁▂▃▅█" {
		t.Fatalf("sparkline = %q", got)
	}
	// A flat series draws full bars, an all-zero one empty bars, none nothing.
	if got := Sparkline([]float64{3, 3}); got != "██" {
		t.Fatalf("flat = %q", got)
	}
	if got := Sparkline([]float64{0, 0}); got != "▁▁" {
		t.Fatalf("zeros = %q", got)
	}
	if got := Sparkline(nil); got != "" {
		t.Fatalf("empty = %q", got)
	}
}
