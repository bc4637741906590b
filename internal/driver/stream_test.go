package driver_test

import (
	"bytes"
	"reflect"
	"testing"

	"mqsched/internal/dataset"
	"mqsched/internal/driver"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// TestSaveLoadRoundTrip: the generator's lists, turned into a stream, survive
// the stream file — what mqbench -dumpworkload / -workload rely on — and
// every client's list can be read back off the stream in order.
func TestSaveLoadRoundTrip(t *testing.T) {
	table := dataset.NewTable(vm.NewSlide("s1", 4096, 4096), vm.NewSlide("s2", 4096, 4096))
	cfg := driver.WorkloadConfig{Clients: 5, QueriesPerClient: 4, ClientsPerDataset: []int{3, 2}, OutputSide: 128, Seed: 11, Op: vm.Average}
	orig := driver.Generate(cfg, table)
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
	for c, list := range load.ByUser(loaded) {
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
