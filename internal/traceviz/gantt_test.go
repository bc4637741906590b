package traceviz

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mqsched/internal/trace"
)

// lifecycle builds the spans one query leaves behind: a server/query root
// from submit to complete, its sched/wait child ending at start, and one
// server/block child per blocked range.
func lifecycle(id int64, submit, start, complete time.Duration, blocked ...[2]time.Duration) []trace.Span {
	root := uint64(id * 100)
	spans := []trace.Span{
		{ID: root, QueryID: id, Subsystem: trace.SubServer, Op: trace.OpQuery, Start: submit, End: complete},
		{ID: root + 1, Parent: root, QueryID: id, Subsystem: trace.SubSched, Op: trace.OpWait, Start: submit, End: start},
	}
	for i, b := range blocked {
		spans = append(spans, trace.Span{ID: root + 2 + uint64(i), Parent: root, QueryID: id,
			Subsystem: trace.SubServer, Op: trace.OpBlock, Start: b[0], End: b[1]})
	}
	return spans
}

const sec = time.Second

func gantt(spans []trace.Span, width int) string {
	return Gantt(LoadSpans("gantt", spans, nil), width)
}

func TestGantt(t *testing.T) {
	// q1: waits 0-2s, executes 2-6s, blocked 3-4s. q2: starts immediately,
	// completes at 4s. Spans arrive in finish order (q2 first).
	spans := append(lifecycle(2, 0, 0, 4*sec), lifecycle(1, 0, 2*sec, 6*sec, [2]time.Duration{3 * sec, 4 * sec})...)

	g := gantt(spans, 60)
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
	if g := gantt(spans, 1); g == "" {
		t.Fatal("small-width Gantt empty")
	}
}

func TestGanttEdgeCases(t *testing.T) {
	if got := gantt(nil, 40); !strings.Contains(got, "no spans") {
		t.Fatalf("empty input: %q", got)
	}
	// Child spans whose root has not finished (or left the ring) draw nothing.
	orphans := lifecycle(1, 0, sec, 3*sec)[1:]
	if got := gantt(orphans, 40); !strings.Contains(got, "no completed") {
		t.Fatalf("no roots: %q", got)
	}
	// A root whose wait span was evicted still renders, as executing
	// throughout.
	_, row, _ := strings.Cut(gantt(lifecycle(1, 0, sec, 3*sec)[:1], 40), "\n")
	if !strings.HasPrefix(row, "q1") || strings.Contains(row, "·") {
		t.Fatalf("missing wait span: %q", row)
	}
	// A query canceled while waiting keeps its row: waiting up to the cancel,
	// never blocked.
	canceled := lifecycle(2, 0, 2*sec, 2*sec)
	canceled[0].Attrs = []trace.Attr{trace.Str(trace.AttrOutcome, "canceled")}
	g := gantt(append(lifecycle(1, 0, 0, 4*sec), canceled...), 40)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[2], "q2") ||
		!strings.Contains(lines[2], "·") || strings.Contains(lines[2], "x") {
		t.Fatalf("canceled query:\n%s", g)
	}
}

// TestGanttFromExport: the schedule reads the same off a Chrome export (what
// mqserver /trace and mqclient -trace-dump write) as off the spans behind it.
func TestGanttFromExport(t *testing.T) {
	spans := append(lifecycle(2, 0, sec, 4*sec, [2]time.Duration{2 * sec, 3 * sec}),
		lifecycle(1, 0, 2*sec, 6*sec, [2]time.Duration{3 * sec, 4 * sec})...)
	var buf bytes.Buffer
	if err := trace.WriteChromeExport(&buf, trace.ChromeExport{Spans: spans}); err != nil {
		t.Fatal(err)
	}
	c, err := Load("export", &buf)
	if err != nil {
		t.Fatal(err)
	}
	want := gantt(spans, 60)
	if got := Gantt(c, 60); got != want {
		t.Fatalf("Gantt from export:\n%s\nfrom spans:\n%s", got, want)
	}
	if strings.Count(want, "\nq") != 2 {
		t.Fatalf("want two rows:\n%s", want)
	}
}
