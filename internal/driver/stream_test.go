package driver

import (
	"bytes"
	"reflect"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// TestSaveLoadRoundTrip: the per-client lists Generate hands the benchmark
// harness, turned into a stream, survive the stream file, and every client's
// list can be read back off the stream in order.
func TestSaveLoadRoundTrip(t *testing.T) {
	table := dataset.NewTable(vm.NewSlide("s1", 4096, 4096), vm.NewSlide("s2", 4096, 4096))
	orig := Generate(WorkloadConfig{Op: vm.Average, Seed: 11}, table)
	if len(orig) == 0 {
		t.Fatal("Generate returned no clients")
	}
	stream := load.FromClients(orig)

	var buf bytes.Buffer
	if err := load.WriteStream(&buf, stream); err != nil {
		t.Fatal(err)
	}
	loaded, err := load.ReadStream(&buf, table)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stream, loaded) {
		t.Fatal("round trip changed the stream")
	}
	byUser := load.ByUser(loaded)
	if len(byUser) != len(orig) {
		t.Fatalf("%d clients came back, generated %d", len(byUser), len(orig))
	}
	for c, list := range byUser {
		if len(list) != len(orig[c]) {
			t.Fatalf("client %d: %d of %d queries came back", c, len(list), len(orig[c]))
		}
		for q, it := range list {
			if it.User != c || it.At != 0 || it.Meta != orig[c][q] {
				t.Fatalf("client %d query %d came back as %+v, generated %v", c, q, it, orig[c][q])
			}
		}
	}
}
