package experiment

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/datastore"
	"mqsched/internal/disk"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// The golden test pins the figures the repository exists to reproduce as
// exact float64 bits, so a refactor of how the stack is assembled cannot
// move a paper number without failing here. Every value was recorded on the
// commit before the assembly paths were merged, and goldenRuns again when the
// overlap index stopped returning removed entries; GOLDEN_PRINT=1 prints the
// table in source form instead of comparing.

// goldenCase is one pinned run; goldenRuns holds its three headline metrics
// at the same index.
type goldenCase struct {
	name string
	cfg  Config
}

// specCells is every cell of the spec table by name, at the paper's scale
// (seed 1, 16 clients x 16 queries).
func specCells() map[string]Config {
	cells := map[string]Config{}
	for _, s := range Specs {
		for _, op := range []vm.Op{vm.Subsample, vm.Average} {
			for _, c := range s.Cells(Config{Op: op, Seed: 1}) {
				cells[c.Name] = c.Config
			}
		}
	}
	return cells
}

// goldenCases selects the pinned runs from the spec table by cell name.
func goldenCases(t *testing.T) []goldenCase {
	cells := specCells()
	var cases []goldenCase
	add := func(name, cell string) {
		cfg, ok := cells[cell]
		if !ok {
			t.Fatalf("golden %s: no cell %s in Specs", name, cell)
		}
		cases = append(cases, goldenCase{name, cfg})
	}
	// The six paper policies on both VM implementations at the defaults (T=4).
	for _, op := range []vm.Op{vm.Subsample, vm.Average} {
		for _, pol := range Policies {
			add(fmt.Sprintf("%s/%s", pol, op), fmt.Sprintf("x1/%s/%s", op, pol))
		}
	}
	// Figure 7's single-batch mode, once per policy.
	for _, pol := range Policies {
		add("batch/"+pol, "x1/subsample/"+pol+"/batch")
	}
	// The future-work strategies.
	for _, pol := range []string{"combined", "ra"} {
		add(pol, "x1/subsample/"+pol)
	}
	// One run per knob that reaches a layer no default run does.
	add("cf/alpha=0.5", "a1/subsample/cf/alpha=0.50")
	add("cf/nodedup", "a2/subsample/cf/dedup=off")
	add("cnbf/prefetch=2", "a4/subsample/cnbf/depth=2/T=4")
	// No sweep has the elevator for an axis.
	elevator := Config{Policy: "cf", Op: vm.Subsample, Seed: 1}
	elevator.IOSched = disk.SchedElevator
	return append(cases, goldenCase{"cf/elevator", elevator})
}

// specByID finds a spec of the table.
func specByID(t *testing.T, id string) Spec {
	for _, s := range Specs {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("no spec %q", id)
	return Spec{}
}

func bitsOf(fs ...float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

func printing() bool { return os.Getenv("GOLDEN_PRINT") != "" }

func TestGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("25 full-size simulated runs")
	}
	if printing() {
		fmt.Println("var goldenRuns = [][3]uint64{")
	}
	cases := goldenCases(t)
	if !printing() && len(cases) != len(goldenRuns) {
		t.Fatalf("%d cases, %d golden rows", len(cases), len(goldenRuns))
	}
	for n, c := range cases {
		m, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := bitsOf(m.TrimmedResponse, m.AvgOverlap, m.Makespan)
		if printing() {
			fmt.Printf("\t{%#x, %#x, %#x}, // %s: %.4f s, overlap %.4f, makespan %.2f s\n",
				got[0], got[1], got[2], c.name, m.TrimmedResponse, m.AvgOverlap, m.Makespan)
			continue
		}
		want := goldenRuns[n]
		for i, label := range []string{"TrimmedResponse", "AvgOverlap", "Makespan"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s = %v (bits %#x), golden %v (bits %#x)", c.name, label,
					math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i])
			}
		}
	}
	if printing() {
		fmt.Println("}")
	}
}

// TestRanksDeterministic runs the CF and CNBF cells whose queues grow
// deepest ten times each in one process: every run of a cell must give the
// same bits, so no rank may depend on the order a map happens to iterate in.
func TestRanksDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("40 full-size simulated runs")
	}
	cells := specCells()
	for _, name := range []string{"x1/subsample/cf/batch", "x1/average/cf/batch", "x1/subsample/cf", "x1/subsample/cnbf"} {
		cfg, ok := cells[name]
		if !ok {
			t.Fatalf("no cell %s in Specs", name)
		}
		var first []uint64
		for run := 0; run < 10; run++ {
			m, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := bitsOf(m.TrimmedResponse, m.AvgOverlap, m.Makespan)
			if first == nil {
				first = got
			} else if !slices.Equal(got, first) {
				t.Fatalf("%s run %d: (TrimmedResponse, AvgOverlap, Makespan) bits %#x, run 0 gave %#x", name, run, got, first)
			}
		}
	}
}

// TestGoldenHeadline keeps the pinned bits honest against the recorded
// figure: the CF/subsampling cell at T=4 is EXPERIMENTS.md's 10.98 s.
func TestGoldenHeadline(t *testing.T) {
	got := math.Float64frombits(goldenRuns[3][0])
	if s := strconv.FormatFloat(got, 'f', 2, 64); s != "10.98" {
		t.Fatalf("golden cf/subsample trimmed response = %s s, EXPERIMENTS.md records 10.98", s)
	}
}

// TestGoldenLoad pins one open-loop run per data store policy on the same
// Zipfian stream: the cost policy's decisions (eviction order, admission)
// are as deterministic in virtual time as LRU's.
func TestGoldenLoad(t *testing.T) {
	table := dataset.NewTable(
		vm.NewSlide("slide1", 30000, 30000),
		vm.NewSlide("slide2", 30000, 30000),
		vm.NewSlide("slide3", 30000, 30000),
	)
	items := load.Build(load.GenConfig{
		Users: 100, DatasetZipfS: 1.1, HotspotZipfS: 1.2, UserZipfS: 0.6,
		OutputSide: 512, Op: vm.Subsample, Seed: 1,
	}, table, load.ArrivalConfig{Process: load.Poisson, Rate: 100, Seed: 1}, 200)
	for _, c := range []struct {
		name     string
		dsPolicy datastore.Policy
		golden   []uint64
	}{
		{"goldenLoad", datastore.PolicyLRU, goldenLoad},
		{"goldenLoadCost", datastore.PolicyCost, goldenLoadCost},
	} {
		cfg := Config{Policy: "cnbf", Op: vm.Subsample}
		cfg.DSPolicy = c.dsPolicy
		m, err := RunWorkload(cfg, items, load.Open, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got := bitsOf(m.P50, m.P95, m.MeanResponse, m.AvgOverlap, m.ReusedBytesFrac, m.Makespan)
		if printing() {
			fmt.Printf("var %s = []uint64{%#x, %#x, %#x, %#x, %#x, %#x} // p50 %.4f p95 %.4f mean %.4f reuse %.4f bytes %.4f final %.3f, measured %d\n",
				c.name, got[0], got[1], got[2], got[3], got[4], got[5], m.P50, m.P95, m.MeanResponse, m.AvgOverlap, m.ReusedBytesFrac, m.Makespan, m.Measured)
			continue
		}
		for i, label := range []string{"P50", "P95", "Mean", "AvgOverlap", "ReusedBytesFrac", "FinalTime"} {
			if got[i] != c.golden[i] {
				t.Errorf("%s: %s = %v (bits %#x), golden %v (bits %#x)", c.name, label,
					math.Float64frombits(got[i]), got[i], math.Float64frombits(c.golden[i]), c.golden[i])
			}
		}
		if m.Queries != 200 || m.Measured != goldenLoadMeasured {
			t.Errorf("%s: completed %d measured %d, golden 200 and %d", c.name, m.Queries, m.Measured, goldenLoadMeasured)
		}
	}
}

func TestGoldenVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("six full-size simulated runs")
	}
	tb, err := Sweep(specByID(t, "v1"), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if printing() {
		fmt.Println("var goldenVolume = [][]string{")
		for _, row := range tb.Rows {
			fmt.Printf("\t%#v,\n", row)
		}
		fmt.Println("}")
		return
	}
	if len(tb.Rows) != len(goldenVolume) {
		t.Fatalf("%d rows, golden %d", len(tb.Rows), len(goldenVolume))
	}
	for i, row := range tb.Rows {
		if fmt.Sprint(row) != fmt.Sprint(goldenVolume[i]) {
			t.Errorf("row %d = %v, golden %v", i, row, goldenVolume[i])
		}
	}
}

var goldenRuns = [][3]uint64{
	{0x40324894efd7b283, 0x3fdb02f07c000000, 0x40740b7891a97164}, // fifo/subsample: 18.2835 s, overlap 0.4221, makespan 320.72 s
	{0x40238887cf60ef18, 0x3fdfb0f374000000, 0x407109060198a039}, // muf/subsample: 9.7667 s, overlap 0.4952, makespan 272.56 s
	{0x401fbe61c6a760d2, 0x3fe0dd8102000000, 0x406f33454e1366ee}, // ff/subsample: 7.9359 s, overlap 0.5270, makespan 249.60 s
	{0x4025f6242f9fcee6, 0x3fe12656d2000000, 0x406f6fd085e485fc}, // cf/subsample: 10.9807 s, overlap 0.5359, makespan 251.49 s
	{0x4023a1ef12852248, 0x3fe18d82d4000000, 0x406cd209b748788c}, // cnbf/subsample: 9.8163 s, overlap 0.5485, makespan 230.56 s
	{0x4026c25ecbcb1310, 0x3fdd80862c000000, 0x40729f19d34479f1}, // sjf/subsample: 11.3796 s, overlap 0.4610, makespan 297.94 s
	{0x404122b934e9f848, 0x3fd94752d8000000, 0x4082c88cab4f8227}, // fifo/average: 34.2713 s, overlap 0.3950, makespan 601.07 s
	{0x402ca5b67c47df9d, 0x3fe08a0b46000000, 0x407ad942f7d28164}, // muf/average: 14.3237 s, overlap 0.5169, makespan 429.58 s
	{0x402ad4ebc47d68f3, 0x3fe17730de000000, 0x4079c60919705847}, // ff/average: 13.4159 s, overlap 0.5458, makespan 412.38 s
	{0x4034e66a2efae37d, 0x3fe1c97412000000, 0x407e493867383fda}, // cf/average: 20.9001 s, overlap 0.5558, makespan 484.58 s
	{0x40327b63c8f289b1, 0x3fe147c512000000, 0x407b0869f5635db7}, // cnbf/average: 18.4820 s, overlap 0.5400, makespan 432.53 s
	{0x40332b9ba4a1469f, 0x3fde2b30e4000000, 0x40800da03ea704bc}, // sjf/average: 19.1703 s, overlap 0.4714, makespan 513.70 s
	{0x40645d5f6b2455c4, 0x3fdb6e97b8000000, 0x4074af455e0d48e0}, // batch/fifo: 162.9179 s, overlap 0.4286, makespan 330.95 s
	{0x40633308e94ec408, 0x3fdb83b880000000, 0x40757a6cbd6cbb1d}, // batch/muf: 153.5948 s, overlap 0.4299, makespan 343.65 s
	{0x405367e98b5bb369, 0x3fe6c8bbd6000000, 0x4064650d8d9395b8}, // batch/ff: 77.6236 s, overlap 0.7120, makespan 163.16 s
	{0x4052386f1200f307, 0x3fe7753f40000000, 0x4063e1c9e3669fd0}, // batch/cf: 72.8818 s, overlap 0.7331, makespan 159.06 s
	{0x404d1877e413a13d, 0x3fe712b2ba000000, 0x4061a5ace6b6e9f3}, // batch/cnbf: 58.1912 s, overlap 0.7210, makespan 141.18 s
	{0x404f96c6d860e05e, 0x3fe3999a6a000000, 0x40699d1694c30158}, // batch/sjf: 63.1779 s, overlap 0.6125, makespan 204.91 s
	{0x4020491ec32a67b7, 0x3fe0182988000000, 0x4070886b7c5f6e72}, // combined: 8.1428 s, overlap 0.5029, makespan 264.53 s
	{0x401dd3fc85173d09, 0x3fe0876e12000000, 0x406f48c82e591d97}, // ra: 7.4570 s, overlap 0.5165, makespan 250.27 s
	{0x4027165f85a667c5, 0x3fe1126110000000, 0x407078aa49358f3f}, // cf/alpha=0.5: 11.5437 s, overlap 0.5335, makespan 263.54 s
	{0x40275f99f3376108, 0x3fe0de81ae000000, 0x407154359aa224a5}, // cf/nodedup: 11.6867 s, overlap 0.5272, makespan 277.26 s
	{0x402907b50be4b4e5, 0x3fe174974a000000, 0x4072c2c935144daf}, // cnbf/prefetch=2: 12.5151 s, overlap 0.5455, makespan 300.17 s
	{0x400ee6683f95f074, 0x3fe14fd8dc000000, 0x4055e4350d5db694}, // cf/elevator: 3.8625 s, overlap 0.5410, makespan 87.57 s
}

var goldenLoad = []uint64{0x404492f6f87a24b4, 0x4050f57bd98629e1, 0x404341f5cfc5d78c, 0x3fe0ced8676f3122, 0x3fdf1498147ae148, 0x40520281d749ed23} // p50 41.1482 p95 67.8357 mean 38.5153 reuse 0.5252 bytes 0.4856 final 72.039

// goldenLoadCost is the same stream under DSPolicy datastore.PolicyCost.
var goldenLoadCost = []uint64{0x404495bfa0047dfa, 0x40509a9708ec48fa, 0x40431e83c5cd1041, 0x3fe0cc36c9b26c9b, 0x3fdf26e7851eb852, 0x40521dc45cbefb5c} // p50 41.1699 p95 66.4155 mean 38.2384 reuse 0.5249 bytes 0.4867 final 72.465

const goldenLoadMeasured = 99

var goldenVolume = [][]string{
	{"FIFO", "50.160", "0.854", "983.932"},
	{"MUF", "46.414", "0.851", "981.545"},
	{"FF", "38.543", "0.856", "893.680"},
	{"CF", "52.490", "0.852", "1112.552"},
	{"CNBF", "36.689", "0.853", "889.876"},
	{"SJF", "37.953", "0.858", "897.083"},
}
