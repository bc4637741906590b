package traceviz

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mqsched/internal/trace"
)

// Gantt renders the schedule c records as ASCII: one row per query whose root
// span is present, in submission order (ties by ID), time scaled to width
// columns (at least 20). Legend: '·' waiting in queue (the query's KindWait
// interval), '█' executing (to the root's end), 'x' blocked on a producer
// (each server/block span).
func Gantt(c *Collection, width int) string {
	if len(c.spans) == 0 {
		return "(no spans)\n"
	}
	width = max(width, 20)
	rooted := map[int64]bool{}
	blocks := map[int64][]seg{}
	for _, s := range c.spans {
		switch {
		case s.Parent == 0 && s.Op == trace.OpQuery:
			rooted[s.QueryID] = true
		case s.Subsystem == trace.SubServer && s.Op == trace.OpBlock:
			blocks[s.QueryID] = append(blocks[s.QueryID], seg{c.sec(s.Start), c.sec(s.End)})
		}
	}
	dequeued := map[int64]float64{}
	for _, iv := range c.Intervals {
		if iv.Kind == KindWait {
			dequeued[iv.Query] = max(dequeued[iv.Query], iv.End)
		}
	}
	var rows []Query
	var end float64
	for _, q := range c.Queries {
		if rooted[q.ID] {
			rows = append(rows, q)
			end = max(end, q.End)
		}
	}
	if end == 0 {
		return "(no completed queries)\n"
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Start < rows[j].Start })

	col := func(t float64) int {
		return min(max(int(t/end*float64(width-1)), 0), width-1)
	}
	fill := func(row []rune, from, to float64, r rune) {
		for i := col(from); i <= col(to); i++ {
			row[i] = r
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedule over %v (one row per query; '·' waiting, '█' executing, 'x' blocked)\n",
		time.Duration(end*float64(time.Second)).Round(time.Millisecond))
	for _, q := range rows {
		row := []rune(strings.Repeat(" ", width))
		start := max(q.Start, dequeued[q.ID])
		fill(row, q.Start, start, '·')
		fill(row, start, q.End, '█')
		for _, g := range blocks[q.ID] {
			fill(row, g.start, g.end, 'x')
		}
		fmt.Fprintf(&b, "q%-4d %s\n", q.ID, string(row))
	}
	return b.String()
}
