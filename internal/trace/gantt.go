package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// lifecycle is one query's schedule as its spans record it: the server/query
// root spans submission to completion, its sched/wait child ends when a
// query thread dequeues it, and each server/block child is one stall on an
// executing producer.
type lifecycle struct {
	id               int64
	submit, complete time.Duration
	start            time.Duration
	blocked          []Span
	canceled         bool
}

// lifecycles groups spans per query, ordered by submission. Only queries
// whose root span is present appear (a root is recorded when it finishes).
func lifecycles(spans []Span) []*lifecycle {
	byID := map[int64]*lifecycle{}
	var order []*lifecycle
	for _, s := range spans {
		if s.Subsystem == SubServer && s.Op == OpQuery {
			outcome, _ := s.AttrStr(AttrOutcome)
			l := &lifecycle{id: s.QueryID, submit: s.Start, start: s.Start, complete: s.End, canceled: outcome == "canceled"}
			byID[s.QueryID] = l
			order = append(order, l)
		}
	}
	for _, s := range spans {
		l := byID[s.QueryID]
		switch {
		case l == nil:
		case s.Subsystem == SubSched && s.Op == OpWait:
			l.start = s.End
		case s.Subsystem == SubServer && s.Op == OpBlock:
			l.blocked = append(l.blocked, s)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].submit != order[j].submit {
			return order[i].submit < order[j].submit
		}
		return order[i].id < order[j].id
	})
	return order
}

// Gantt renders the schedule the spans record: one row per completed query
// in submission order, time scaled to width columns. Legend: '·' waiting in
// queue, '█' executing, 'x' blocked on a producer.
func Gantt(spans []Span, width int) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if width < 20 {
		width = 20
	}
	rows := lifecycles(spans)
	var end time.Duration
	for _, l := range rows {
		end = max(end, l.complete)
	}
	if end == 0 {
		return "(no completed queries)\n"
	}
	col := func(t time.Duration) int {
		return min(max(int(int64(t)*int64(width-1)/int64(end)), 0), width-1)
	}
	fill := func(row []rune, from, to time.Duration, r rune) {
		for c := col(from); c <= col(to); c++ {
			row[c] = r
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "schedule over %v (one row per query; '·' waiting, '█' executing, 'x' blocked)\n", end.Round(time.Millisecond))
	for _, l := range rows {
		row := []rune(strings.Repeat(" ", width))
		fill(row, l.submit, l.start, '·')
		fill(row, l.start, l.complete, '█')
		for _, s := range l.blocked {
			fill(row, s.Start, s.End, 'x')
		}
		fmt.Fprintf(&b, "q%-4d %s\n", l.id, string(row))
	}
	return b.String()
}

// Summary counts the lifecycle transitions the spans record: queries
// completed, queries canceled while still waiting, and stalls on producers.
func Summary(spans []Span) string {
	var completed, canceled, blocks int
	for _, l := range lifecycles(spans) {
		if l.canceled {
			canceled++
		} else {
			completed++
		}
		blocks += len(l.blocked)
	}
	return fmt.Sprintf("completed=%d canceled=%d blocked=%d", completed, canceled, blocks)
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders non-negative vals as one bar per value, scaled from zero
// to the series' maximum — the one-line companion to Gantt for a quantity
// over time (utilization, queue depth) already cut into as many buckets as
// there are columns.
func Sparkline(vals []float64) string {
	hi := 0.0
	for _, v := range vals {
		hi = max(hi, v)
	}
	if hi == 0 {
		hi = 1
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		out[i] = sparkRunes[int(max(v, 0)/hi*float64(len(sparkRunes)-1)+0.5)]
	}
	return string(out)
}
