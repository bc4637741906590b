package load

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"mqsched/internal/geom"
	"mqsched/internal/vm"
	"mqsched/internal/vol"
)

// TestStreamRoundTrip: a generated stream, open-loop or the emulated
// clients', comes back from its file item for item — users and arrival
// instants (to the nanosecond) included.
func TestStreamRoundTrip(t *testing.T) {
	table := testTable()
	for name, items := range map[string][]Item{
		"poisson": Build(testGenConfig(), table, ArrivalConfig{Process: Poisson, Rate: 37, Seed: 3}, 500),
		"burst":   Build(testGenConfig(), table, ArrivalConfig{Process: Burst, Rate: 200, Seed: 2}, 500),
		"clients": Clients(GenConfig{Pattern: Browse, Users: 5, Queries: 4, OutputSide: 128, Op: vm.Average, Seed: 11}, table),
	} {
		var buf bytes.Buffer
		if err := WriteStream(&buf, items); err != nil {
			t.Fatal(err)
		}
		back, err := ReadStream(&buf, table)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(items, back) {
			for i := range items {
				if !reflect.DeepEqual(items[i], back[i]) {
					t.Fatalf("%s: item %d came back as %+v, wrote %+v", name, i, back[i], items[i])
				}
			}
			t.Fatalf("%s: wrote %d items, read %d", name, len(items), len(back))
		}
	}
	// The file holds VM predicates only.
	dims := vol.Dims{Width: 64, Height: 64, Depth: 4}
	other := []Item{{Meta: vol.NewMeta("v", dims, geom.R(0, 0, 64, 64), 0, 4, 2, vol.MIP)}}
	if err := WriteStream(&bytes.Buffer{}, other); err == nil {
		t.Error("a volume predicate was written to the stream file")
	}
}

// TestReadStreamValidation: every malformed file is an error naming the item,
// never a panic. The rows up to "zero zoom" are the checks the per-client
// list reader made; the three NewMeta conditions are now explicit.
func TestReadStreamValidation(t *testing.T) {
	table := testTable4k()
	item := func(fields string) string { return `{"version":2,"items":[` + fields + `]}` }
	cases := []struct {
		name, json, want string
	}{
		{"garbage", "{nope", "decoding"},
		{"bad version", `{"version":3,"items":[]}`, "version 3"},
		{"old version", `{"version":1,"clients":[[{"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"}]]}`, "version 1"},
		{"unknown op", item(`{"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"blur"}`), "item 0"},
		{"unknown dataset", item(`{"dataset":"zz","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"}`), `unknown dataset "zz"`},
		{"out of bounds", item(`{"dataset":"slide1","x0":0,"y0":0,"x1":999999,"y1":8,"zoom":1,"op":"subsample"}`), "outside"},
		{"misaligned", item(`{"dataset":"slide1","x0":1,"y0":0,"x1":9,"y1":8,"zoom":4,"op":"subsample"}`), "not aligned"},
		{"zero zoom", item(`{"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":0,"op":"subsample"}`), "zoom 0 < 1"},
		{"empty window", item(`{"dataset":"slide1","x0":8,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"}`), "empty"},
		{"negative user", item(`{"user":-1,"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"}`), "user -1"},
		{"negative instant", item(`{"at_ms":-0.5,"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"}`), "at_ms -0.5"},
		{"second item", item(`{"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":1,"op":"subsample"},` +
			`{"dataset":"slide1","x0":0,"y0":0,"x1":8,"y1":8,"zoom":3,"op":"subsample"}`), "item 1"},
	}
	for _, c := range cases {
		_, err := ReadStream(strings.NewReader(c.json), table)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	// A valid single-item stream loads.
	ok := item(`{"user":3,"at_ms":1.5,"dataset":"slide1","x0":0,"y0":0,"x1":64,"y1":64,"zoom":4,"op":"subsample"}`)
	items, err := ReadStream(strings.NewReader(ok), table)
	if err != nil {
		t.Fatal(err)
	}
	want := Item{User: 3, At: 1500 * time.Microsecond, Meta: vm.NewMeta("slide1", geom.R(0, 0, 64, 64), 4, vm.Subsample)}
	if len(items) != 1 || items[0] != want {
		t.Fatalf("loaded %+v, want %+v", items, want)
	}
}

// TestFromClients: uneven lists interleave round-robin at instant 0, and
// ByUser gives every list back.
func TestFromClients(t *testing.T) {
	q := func(x int64) vm.Meta { return vm.NewMeta("slide1", geom.R(x, 0, x+8, 8), 1, vm.Subsample) }
	clients := [][]vm.Meta{{q(0), q(8), q(16)}, {q(24)}, {q(32), q(40)}}
	items := FromClients(clients)
	var order []int
	for i, it := range items {
		if it.Seq != i || it.At != 0 {
			t.Fatalf("item %d: %+v", i, it)
		}
		order = append(order, it.User)
	}
	if want := []int{0, 1, 2, 0, 2, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("users in stream order %v, want %v", order, want)
	}
	for u, list := range ByUser(items) {
		for i, it := range list {
			if it.User != u || it.Meta != clients[u][i] {
				t.Fatalf("user %d item %d: %+v", u, i, it)
			}
		}
		if len(list) != len(clients[u]) {
			t.Fatalf("user %d has %d of %d items", u, len(list), len(clients[u]))
		}
	}
}

// TestPacingValidate: a think time is not negative.
func TestPacingValidate(t *testing.T) {
	for _, p := range []Pacing{Open, Closed(0), Closed(time.Second)} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	if Closed(-time.Second).Validate() == nil {
		t.Error("a negative think time validated")
	}
}
