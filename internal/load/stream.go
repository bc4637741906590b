package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/geom"
	"mqsched/internal/query"
	"mqsched/internal/vm"
)

// Item is one query of a workload stream: who asks what, when. A []Item is
// the one workload type: every generator's output is one (Build and Clients
// directly, FromClients from per-client lists) and both replayers — Run on
// the wire, experiment.Replay on an assembled system — walk nothing else.
type Item struct {
	// Seq is the stream position.
	Seq int
	// User is the session (client) the query belongs to.
	User int
	// At is the arrival instant relative to the stream start. Open pacing
	// honours it; closed pacing lets completions set the instants.
	At time.Duration
	// Meta is the query predicate, of any application. The wire and the
	// stream file speak the Virtual Microscope's vm.Meta only.
	Meta query.Meta
}

// Pacing is how a replayer releases a stream. The zero value, Open, releases
// every item at its At whatever has been answered, so queueing delay shows;
// Closed keeps one query in flight per User, in stream order, the way the
// paper's client emulator does (Figures 4-6). The paper's up-front batch
// (Figure 7) is not a third pacing: it is Open over a stream whose arrivals
// are all at 0.
type Pacing struct {
	// Closed has each user wait for an answer before asking again.
	Closed bool
	// Think is a closed user's pause between an answer and the next query.
	Think time.Duration
}

// Open is the pacing that honours the stream's arrival instants.
var Open = Pacing{}

// Closed is the pacing of one query in flight per user.
func Closed(think time.Duration) Pacing { return Pacing{Closed: true, Think: think} }

// Validate reports a negative think time.
func (p Pacing) Validate() error {
	if p.Think < 0 {
		return fmt.Errorf("load: think time %v < 0", p.Think)
	}
	return nil
}

// FromClients turns per-client query lists into a stream in the shape
// Clients gives: client i is user i, every arrival is at 0, and the lists
// interleave round-robin, every client's first query first — the order the
// paper's batch is submitted in. Closed pacing reads only each user's order.
func FromClients[M query.Meta](clients [][]M) []Item {
	var items []Item
	for q, more := 0, true; more; q++ {
		more = false
		for user, list := range clients {
			if q < len(list) {
				items = append(items, Item{Seq: len(items), User: user, Meta: list[q]})
				more = true
			}
		}
	}
	return items
}

// ByUser splits a stream into its users' lists, each in stream order, users
// in order of first appearance: the unit of closed pacing.
func ByUser(items []Item) [][]Item {
	var lists [][]Item
	index := map[int]int{}
	for _, it := range items {
		i, ok := index[it.User]
		if !ok {
			i, index[it.User] = len(lists), len(lists)
			lists = append(lists, nil)
		}
		lists[i] = append(lists[i], it)
	}
	return lists
}

// streamFile is the saved-workload format (mqbench -dumpworkload/-workload):
// the stream's items in order. Seq is the position in the list.
type streamFile struct {
	Version int         `json:"version"`
	Items   []savedItem `json:"items"`
}

// streamVersion 1 was a list of per-client lists with no users or instants.
const streamVersion = 2

type savedItem struct {
	User    int     `json:"user"`
	AtMS    float64 `json:"at_ms"`
	Dataset string  `json:"dataset"`
	X0      int64   `json:"x0"`
	Y0      int64   `json:"y0"`
	X1      int64   `json:"x1"`
	Y1      int64   `json:"y1"`
	Zoom    int64   `json:"zoom"`
	Op      string  `json:"op"`
}

// WriteStream saves a stream of VM queries as JSON.
func WriteStream(w io.Writer, items []Item) error {
	f := streamFile{Version: streamVersion, Items: make([]savedItem, len(items))}
	for i, it := range items {
		m, ok := it.Meta.(vm.Meta)
		if !ok {
			return fmt.Errorf("load: item %d: the stream file holds VM queries, not %T", i, it.Meta)
		}
		f.Items[i] = savedItem{
			User: it.User, AtMS: float64(it.At) / float64(time.Millisecond),
			Dataset: m.DS,
			X0:      m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
			Zoom: m.Zoom, Op: m.Op.String(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&f)
}

// ReadStream reads a stream saved by WriteStream, checking every item against
// the dataset table.
func ReadStream(r io.Reader, table *dataset.Table) ([]Item, error) {
	var f streamFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("load: decoding stream: %w", err)
	}
	if f.Version != streamVersion {
		return nil, fmt.Errorf("load: unsupported stream version %d (want %d)", f.Version, streamVersion)
	}
	items := make([]Item, len(f.Items))
	for i, s := range f.Items {
		m, err := s.check(table)
		if err != nil {
			return nil, fmt.Errorf("load: item %d: %w", i, err)
		}
		at := time.Duration(math.Round(s.AtMS * float64(time.Millisecond)))
		items[i] = Item{Seq: i, User: s.User, At: at, Meta: m}
	}
	return items, nil
}

// check is what a saved item must satisfy: a known op and dataset, a window
// inside the dataset's bounds that is a well-formed predicate, and no
// negative user or instant.
func (s savedItem) check(table *dataset.Table) (vm.Meta, error) {
	op, err := vm.ParseOp(s.Op)
	if err != nil {
		return vm.Meta{}, err
	}
	m := vm.Meta{DS: s.Dataset, Rect: geom.R(s.X0, s.Y0, s.X1, s.Y1), Zoom: s.Zoom, Op: op}
	l, ok := table.Lookup(s.Dataset)
	switch {
	case !ok:
		return m, fmt.Errorf("unknown dataset %q", s.Dataset)
	case !l.Bounds().Contains(m.Rect):
		return m, fmt.Errorf("window %v outside %q bounds", m.Rect, s.Dataset)
	case s.User < 0:
		return m, fmt.Errorf("user %d < 0", s.User)
	case !(s.AtMS >= 0):
		return m, fmt.Errorf("at_ms %v < 0", s.AtMS)
	}
	return m, m.Validate()
}
