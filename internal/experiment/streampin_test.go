package experiment

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"mqsched"
	"mqsched/internal/dataset"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// The stream pin holds every workload generator to its bytes: an FNV-64a hash
// over each stream's users, arrival instants and predicates, for the seeds
// the goldens, the benchmark harness and mqload's defaults use. A refactor of
// generation may change how a stream is asked for, never what comes out, so
// only the stream functions below may be edited, never a hash. GOLDEN_PRINT=1
// prints the hashes instead of comparing.

type streamPinCase struct {
	name   string
	seeds  []int64
	stream func(seed int64) []load.Item
	want   uint64
}

// threeSlides is the paper's three square slides at the given edge.
func threeSlides(side int64) *dataset.Table {
	return mqsched.NewSlideTable(
		mqsched.Slide{Name: "slide1", Width: side, Height: side},
		mqsched.Slide{Name: "slide2", Width: side, Height: side},
		mqsched.Slide{Name: "slide3", Width: side, Height: side},
	)
}

func seedsUpTo(n int64) []int64 {
	var out []int64
	for s := int64(1); s <= n; s++ {
		out = append(out, s)
	}
	return out
}

func streamPinCases() []streamPinCase {
	ops := []vm.Op{vm.Subsample, vm.Average}
	var cases []streamPinCase
	// experiment.Config.Stream at the paper's size and at the goldens', in
	// the order size, mode, op.
	wants := []uint64{
		0xbf756e131e98c748, 0xf6ab153678e4906a, 0x70259f47535a692f, 0x29b90710d7cdf067, 0xcdf6377518fc3f62, 0x9000db8e7031ab74,
		0x87fca6679908879e, 0xcc069a9095dab67c, 0x2505b31dfffbae52, 0x3cf417b95e18a142, 0xf971b8e01d1056de, 0xeffa442bcceafdb4,
	}
	for _, size := range [][2]int{{16, 16}, {4, 2}} {
		for _, mode := range []load.Pattern{load.Browse, load.Pan, load.ZoomStack} {
			for _, op := range ops {
				cases = append(cases, streamPinCase{
					name:  fmt.Sprintf("experiment/%dx%d/%v/%v", size[0], size[1], mode, op),
					seeds: seedsUpTo(16),
					stream: func(seed int64) []load.Item {
						return Config{Op: op, Seed: seed, Clients: size[0], QueriesPerClient: size[1], Mode: mode}.Stream()
					},
					want: wants[len(cases)],
				})
			}
		}
	}
	// bench/stream.go's paper stream, as paper_sim draws it.
	for i, op := range ops {
		cases = append(cases, streamPinCase{
			name:  fmt.Sprintf("paper_sim/%v", op),
			seeds: seedsUpTo(10),
			stream: func(seed int64) []load.Item {
				return load.Clients(load.GenConfig{Pattern: load.Browse, Op: op, Seed: seed}, threeSlides(30000))
			},
			want: []uint64{0xec142508159326eb, 0x92e573c1cf297fb5}[i],
		})
	}
	return append(cases,
		// bench/stream.go's browse stream, its first 2,000 queries.
		streamPinCase{"browse", seedsUpTo(6), func(seed int64) []load.Item {
			g := load.NewGenerator(load.GenConfig{
				Users: 200, DatasetZipfS: 1.1, HotspotZipfS: 1.2, UserZipfS: 0.6,
				HotspotsPerDataset: 4, OutputSide: 512, Zooms: []int64{1, 2, 4, 8},
				Op: vm.Subsample, Seed: seed,
			}, threeSlides(4096))
			items := make([]load.Item, 2000)
			for i := range items {
				user, m := g.Next()
				items[i] = load.Item{Seq: i, User: user, Meta: m}
			}
			return items
		}, 0x41ecc23352205ff0},
		// mqload's rate sweep at its first default rate, 25 qps over 2 s of
		// warmup and 10 s measured.
		streamPinCase{"mqload/sweep", seedsUpTo(1), func(seed int64) []load.Item {
			return load.Build(load.GenConfig{
				Users: 1000, DatasetZipfS: 1.1, HotspotsPerDataset: 4, HotspotZipfS: 1.2, UserZipfS: 0.6,
				OutputSide: 512, Op: vm.Subsample, Seed: seed,
			}, threeSlides(16384), load.ArrivalConfig{
				Process: load.Poisson, Rate: 25, BurstFactor: 4, BurstOn: time.Second, BurstOff: 4 * time.Second, Seed: seed,
			}, 300)
		}, 0x2e908e4e3303d273},
		// mqload -clients 8 -queries 16 -outside 512.
		streamPinCase{"mqload/clients", seedsUpTo(1), func(seed int64) []load.Item {
			return load.Clients(load.GenConfig{
				Pattern: load.Browse, Users: 8, Queries: 16, OutputSide: 512, Op: vm.Subsample, Seed: seed,
			}, threeSlides(16384))
		}, 0xae925f701363e00c},
	)
}

// streamPin hashes a case's streams, seed by seed.
func streamPin(c streamPinCase) (hash uint64, items int) {
	h := fnv.New64a()
	for _, seed := range c.seeds {
		stream := c.stream(seed)
		items += len(stream)
		for _, it := range stream {
			fmt.Fprintf(h, "%d %d %d %s\n", seed, it.User, it.At, it.Meta.String())
		}
	}
	return h.Sum64(), items
}

func TestStreamsPinned(t *testing.T) {
	for _, c := range streamPinCases() {
		got, n := streamPin(c)
		if printing() {
			fmt.Printf("%s: %d items, %#x\n", c.name, n, got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: stream hash %#x over %d items, pinned %#x", c.name, got, n, c.want)
		}
	}
}
