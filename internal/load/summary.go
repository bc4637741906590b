package load

import (
	"time"

	"mqsched/internal/stats"
)

// Done is what became of one item of a replayed stream, on the replayer's
// clock: virtual time on an assembled system (experiment.Replay), wall time
// since the phase began on the wire (Run). A replay yields exactly one per
// item, in completion order.
type Done struct {
	Item
	// Sent and Received are when the query went out and when its answer came
	// back; an item that never went out has neither.
	Sent, Received time.Duration
	// Wait and Exec are the server's queueing delay and execution time.
	Wait, Exec time.Duration
	// ReusedFrac is the share of the output the server projected from cached
	// or just-finished results rather than computed.
	ReusedFrac float64
	// Err is why the item has no answer: a transport or server error, or
	// ErrDropped or ErrNotSent for an item that never went out.
	Err string
}

// The Err of an item that never went out.
const (
	ErrDropped = "dropped: the arrival queue was full"
	ErrNotSent = "not sent: an earlier query of this user failed"
)

// Summary is what a replay's clients saw, the same on both substrates. Times
// are seconds on the replayer's clock. The response, wait, exec, quantile and
// overlap figures describe the measured queries: those answered whose At is
// at or after the warmup.
type Summary struct {
	// Queries counts the answered items, Measured their post-warmup subset,
	// Errors the items sent but not answered, and Dropped the items never sent
	// (open arrivals that found the queue full, and the rest of a closed
	// user's list once one of its queries failed).
	Queries, Measured, Errors, Dropped int

	// Response-time statistics (the paper's Figures 4 and 6 use the
	// 95%-trimmed mean of waiting + execution time).
	TrimmedResponse float64
	MeanResponse    float64
	MeanWait        float64
	MeanExec        float64
	// Response-time quantiles by nearest rank (stats.Percentile), and the
	// largest response.
	P50, P95, P99, MaxResponse float64

	// AvgOverlap is the mean per-query reused fraction (Figure 5).
	AvgOverlap float64
	// ReusedBytesFrac is the fraction of all output bytes produced by
	// projection rather than raw computation, over the whole replay:
	// AvgOverlap weighted by bytes. A record cannot give it, so the replayer
	// fills it from the server's two output-byte counters.
	ReusedBytesFrac float64
	// Makespan is the instant the last answer came back (Figure 7 for
	// batches).
	Makespan float64
	// Offered is the stream's own arrival rate in queries/sec (0 when it sets
	// none: closed pacing, or every arrival at 0); AchievedQPS is measured
	// answers over the post-warmup window.
	Offered, AchievedQPS float64
}

// Summarize reduces a replay's records, in the completion order the replayer
// returned them, to its Summary under the pacing the stream was replayed at.
// Items arriving before warmup ran, heating the caches, but are left out of
// the statistics. ReusedBytesFrac is left 0 for the replayer.
func Summarize(done []Done, p Pacing, warmup time.Duration) Summary {
	var (
		s                Summary
		resp, wait, exec []float64
		overlap          float64
		last, finish     time.Duration
	)
	for _, d := range done {
		last = max(last, d.At)
		finish = max(finish, d.Received)
		switch d.Err {
		case "":
			s.Queries++
		case ErrDropped, ErrNotSent:
			s.Dropped++
		default:
			s.Errors++
		}
		if d.Err != "" || d.At < warmup {
			continue
		}
		resp = append(resp, (d.Received - d.Sent).Seconds())
		wait = append(wait, d.Wait.Seconds())
		exec = append(exec, d.Exec.Seconds())
		overlap += d.ReusedFrac
	}
	s.Measured = len(resp)
	s.TrimmedResponse = stats.TrimmedMean95(resp)
	s.MeanResponse = stats.Mean(resp)
	s.MeanWait = stats.Mean(wait)
	s.MeanExec = stats.Mean(exec)
	s.P50, s.P95, s.P99 = stats.Percentile(resp, 50), stats.Percentile(resp, 95), stats.Percentile(resp, 99)
	s.MaxResponse = stats.Percentile(resp, 100) // the top rank
	s.AvgOverlap = overlap / float64(max(s.Measured, 1))
	s.Makespan = finish.Seconds()
	// A batch (every arrival at 0) and closed pacing offer no rate: 0, unpaced.
	if last > 0 && !p.Closed {
		s.Offered = float64(len(done)) / last.Seconds()
	}
	if win := (finish - warmup).Seconds(); win > 0 {
		s.AchievedQPS = float64(s.Measured) / win
	}
	return s
}
