package load

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// answered is the record of item seq arriving at at, sent then and answered
// resp later, a quarter of it queued.
func answered(seq int, at, resp time.Duration) Done {
	return Done{
		Item: Item{Seq: seq, At: at}, Sent: at, Received: at + resp,
		Wait: resp / 4, Exec: resp - resp/4, ReusedFrac: 0.5,
	}
}

// tenQPS is ten items 100 ms apart, the first at 100 ms, each answered in
// 50 ms.
func tenQPS() []Done {
	var done []Done
	for i := range 10 {
		done = append(done, answered(i, time.Duration(i+1)*100*time.Millisecond, 50*time.Millisecond))
	}
	return done
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSummarize pins the one reduction of records to a summary on hand-built
// records: the offered rate, warmup, errors and drops, and empty input.
func TestSummarize(t *testing.T) {
	done := tenQPS()
	s := Summarize(done, Open, 0)
	if s.Queries != 10 || s.Measured != 10 || s.Errors != 0 || s.Dropped != 0 {
		t.Errorf("counts: %+v", s)
	}
	if !near(s.Offered, 10) || !near(s.Makespan, 1.05) || !near(s.AchievedQPS, 10/1.05) {
		t.Errorf("offered %v, makespan %v, achieved %v; want 10, 1.05, %v", s.Offered, s.Makespan, s.AchievedQPS, 10/1.05)
	}
	if !near(s.MeanResponse, 0.05) || !near(s.TrimmedResponse, 0.05) || !near(s.MeanWait+s.MeanExec, 0.05) || !near(s.AvgOverlap, 0.5) {
		t.Errorf("response %v trimmed %v wait %v exec %v overlap %v", s.MeanResponse, s.TrimmedResponse, s.MeanWait, s.MeanExec, s.AvgOverlap)
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.MaxResponse) || !near(s.MaxResponse, 0.05) {
		t.Errorf("quantiles %v %v %v max %v", s.P50, s.P95, s.P99, s.MaxResponse)
	}

	// The rate is the stream's, whatever order the records come in.
	shuffled := append([]Done(nil), done...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := Summarize(shuffled, Open, 0).Offered; got != s.Offered {
		t.Errorf("shuffled: offered %v, in order %v", got, s.Offered)
	}

	// Closed pacing sets its own instants, and a stream at 0 sets none.
	if got := Summarize(done, Closed(0), 0).Offered; got != 0 {
		t.Errorf("closed: offered %v, want 0", got)
	}
	batch := []Done{answered(0, 0, time.Second), answered(1, 0, 2*time.Second)}
	if got := Summarize(batch, Open, 0); got.Offered != 0 || got.Queries != 2 {
		t.Errorf("batch: offered %v over %d queries, want 0 over 2", got.Offered, got.Queries)
	}

	// Warmup: items arriving before it are answered but not measured; the
	// window starts at it.
	w := Summarize(done, Open, 550*time.Millisecond)
	if w.Queries != 10 || w.Measured != 5 || !near(w.AchievedQPS, 5/(1.05-0.55)) {
		t.Errorf("warmup: %d answered, %d measured, %v qps; want 10, 5, %v", w.Queries, w.Measured, w.AchievedQPS, 5/(1.05-0.55))
	}
	// A replay that ends before its warmup does reads 0 qps, not a negative
	// rate.
	if w := Summarize(done, Open, 2*time.Second); w.Measured != 0 || w.AchievedQPS != 0 || math.Signbit(w.AchievedQPS) {
		t.Errorf("window shorter than warmup: measured %d, %v qps", w.Measured, w.AchievedQPS)
	}

	// Errors and drops are counted, and stay out of the latency figures.
	failed := answered(10, 500*time.Millisecond, 10*time.Second)
	failed.Err = "server on fire"
	mixed := append(tenQPS(), failed,
		Done{Item: Item{Seq: 11, At: 600 * time.Millisecond}, Err: ErrDropped},
		Done{Item: Item{Seq: 12, At: 700 * time.Millisecond}, Err: ErrNotSent})
	m := Summarize(mixed, Open, 0)
	if m.Queries != 10 || m.Measured != 10 || m.Errors != 1 || m.Dropped != 2 {
		t.Errorf("mixed: %d answered, %d measured, %d errors, %d dropped; want 10, 10, 1, 2", m.Queries, m.Measured, m.Errors, m.Dropped)
	}
	if !near(m.MaxResponse, 0.05) || !near(m.MeanResponse, 0.05) || !near(m.AvgOverlap, 0.5) {
		t.Errorf("mixed: max %v mean %v overlap %v; the failed query leaked into them", m.MaxResponse, m.MeanResponse, m.AvgOverlap)
	}

	// Nothing measured: zeros, not NaN.
	if got := Summarize(nil, Open, 0); got != (Summary{}) {
		t.Errorf("no records: %+v", got)
	}
	if got := Summarize([]Done{{Err: "refused"}}, Open, 0); got != (Summary{Errors: 1}) {
		t.Errorf("one failed record: %+v", got)
	}
}
