package experiment

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"mqsched/internal/dataset"
	"mqsched/internal/disk"
	"mqsched/internal/load"
	"mqsched/internal/vm"
)

// The golden test pins the figures the repository exists to reproduce as
// exact float64 bits, so a refactor of how the stack is assembled cannot
// move a paper number without failing here. Every value was recorded on the
// commit before the assembly paths were merged; GOLDEN_PRINT=1 prints the
// table in source form instead of comparing.

// goldenCase is one pinned run; goldenRuns holds its three headline metrics
// at the same index.
type goldenCase struct {
	name string
	cfg  Config
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name, policy string, op vm.Op, edit func(*Config)) {
		c := Config{Policy: policy, Op: op, Seed: 1}
		if edit != nil {
			edit(&c)
		}
		cases = append(cases, goldenCase{name, c})
	}
	// The six paper policies on both VM implementations at the defaults
	// (seed 1, 16 clients x 16 queries, T=4).
	for _, op := range []vm.Op{vm.Subsample, vm.Average} {
		for _, pol := range Policies {
			add(fmt.Sprintf("%s/%s", pol, op), pol, op, nil)
		}
	}
	// Figure 7's single-batch mode, once per policy.
	for _, pol := range Policies {
		add("batch/"+pol, pol, vm.Subsample, func(c *Config) { c.Batch = true })
	}
	// The future-work strategies.
	for _, pol := range []string{"combined", "autotune", "ra"} {
		add(pol, pol, vm.Subsample, nil)
	}
	// One run per knob that reaches a layer no default run does. The fields
	// are assigned, not written in a literal, so the file compiles wherever
	// the knob is declared.
	add("cf/alpha=0.5", "cf", vm.Subsample, func(c *Config) { c.CFAlpha = 0.5 })
	add("cf/nodedup", "cf", vm.Subsample, func(c *Config) { c.DisablePSDedup = true })
	add("cnbf/prefetch=2", "cnbf", vm.Subsample, func(c *Config) { c.PrefetchDepth = 2 })
	add("cf/elevator", "cf", vm.Subsample, func(c *Config) { c.IOSched = disk.SchedElevator })
	return cases
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
	cases := goldenCases()
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
			g, w := math.Float64frombits(got[i]), math.Float64frombits(want[i])
			if got[i] != want[i] && math.Abs(g-w) > goldenLoose[c.name]*w {
				t.Errorf("%s: %s = %v (bits %#x), golden %v (bits %#x)", c.name, label, g, got[i], w, want[i])
			}
		}
	}
	if printing() {
		fmt.Println("}")
	}
}

// TestGoldenHeadline keeps the pinned bits honest against the recorded
// figure: the CF/subsampling cell at T=4 is EXPERIMENTS.md's 10.40 s.
func TestGoldenHeadline(t *testing.T) {
	got := math.Float64frombits(goldenRuns[3][0])
	if s := strconv.FormatFloat(got, 'f', 2, 64); s != "10.40" {
		t.Fatalf("golden cf/subsample trimmed response = %s s, EXPERIMENTS.md records 10.40", s)
	}
}

// TestGoldenLoad pins one open-loop run per data store policy on the same
// Zipfian stream: the cost policy's decisions (eviction order, admission,
// materialization) are as deterministic in virtual time as LRU's.
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
		name, dsPolicy string
		golden         []uint64
	}{
		{"goldenLoad", "", goldenLoad},
		{"goldenLoadCost", "cost", goldenLoadCost},
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
		for i, label := range []string{"P50", "P95", "Mean", "MeanReuse", "ReusedBytesFrac", "FinalTime"} {
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
	tb, err := VolumeComparison(Config{Seed: 1})
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
	{0x403220dd04fa39a4, 0x3fdbd32f18000000, 0x40741645bf42dcb0}, // fifo/subsample: 18.1284 s, overlap 0.4348, makespan 321.39 s
	{0x4022118d48503e5f, 0x3fe0a72c4e000000, 0x407048a1376bfcfe}, // muf/subsample: 9.0343 s, overlap 0.5204, makespan 260.54 s
	{0x401edcf6d4a715eb, 0x3fe15c9ddc000000, 0x406e5739a11ed1b0}, // ff/subsample: 7.7158 s, overlap 0.5426, makespan 242.73 s
	{0x4024caf8f3c15f7d, 0x3fe1c69ae6000000, 0x406eaec58691a175}, // cf/subsample: 10.3964 s, overlap 0.5555, makespan 245.46 s
	{0x4022dcfa0317b3fd, 0x3fe1c76150000000, 0x406de1f5908b868f}, // cnbf/subsample: 9.4316 s, overlap 0.5556, makespan 239.06 s
	{0x4025a2921892a7fc, 0x3fde3922b4000000, 0x40719e331069511f}, // sjf/subsample: 10.8175 s, overlap 0.4722, makespan 281.89 s
	{0x4040a07e46c65214, 0x3fd9c75e74000000, 0x408253eedb563016}, // fifo/average: 33.2539 s, overlap 0.4028, makespan 586.49 s
	{0x402c7145fa6f5a40, 0x3fe071f1fa000000, 0x407b7a60a9ef748f}, // muf/average: 14.2212 s, overlap 0.5139, makespan 439.65 s
	{0x402b4336906e3c1b, 0x3fe1828e1a000000, 0x407a5e41f798277f}, // ff/average: 13.6313 s, overlap 0.5472, makespan 421.89 s
	{0x40343463992ebf96, 0x3fe2135e8c000000, 0x407d2c1f66c3a5d4}, // cf/average: 20.2046 s, overlap 0.5649, makespan 466.76 s
	{0x403128a54b570cb0, 0x3fe15fd51c000000, 0x407af5377fa221a8}, // cnbf/average: 17.1588 s, overlap 0.5429, makespan 431.33 s
	{0x40332b9ba4a1469f, 0x3fde2b30e4000000, 0x40800da03ea704bc}, // sjf/average: 19.1703 s, overlap 0.4714, makespan 513.70 s
	{0x40645d5f6b2455c4, 0x3fdb6e97b8000000, 0x4074af455e0d48e0}, // batch/fifo: 162.9179 s, overlap 0.4286, makespan 330.95 s
	{0x4062f0c841de51a2, 0x3fdc0bd87c000000, 0x40750810c050f112}, // batch/muf: 151.5244 s, overlap 0.4382, makespan 336.50 s
	{0x405367e98b5bb369, 0x3fe6c8bbd6000000, 0x4064650d8d9395b8}, // batch/ff: 77.6236 s, overlap 0.7120, makespan 163.16 s
	{0x4051ecc3c88cc99f, 0x3fe778eee2000000, 0x4063b02e3e3fbceb}, // batch/cf: 71.6994 s, overlap 0.7335, makespan 157.51 s
	{0x404cebf4b33a74aa, 0x3fe7534618000000, 0x4060901fffc57b27}, // batch/cnbf: 57.8434 s, overlap 0.7289, makespan 132.50 s
	{0x404f9bf6adf5825c, 0x3fe3a45846000000, 0x40699923e208846f}, // batch/sjf: 63.2185 s, overlap 0.6138, makespan 204.79 s
	{0x401eca83228e3246, 0x3fe0576cde000000, 0x4070268ad4d10e61}, // combined: 7.6978 s, overlap 0.5107, makespan 258.41 s
	{0x40293ac37922f93d, 0x3fdf7d7e48000000, 0x40716e1abbf5cb2f}, // autotune: 12.6148 s, overlap 0.4920, makespan 278.88 s
	{0x40202f79a367be8f, 0x3fe01c60f0000000, 0x40710a777b0729b7}, // ra: 8.0927 s, overlap 0.5035, makespan 272.65 s
	{0x402627c48ccd16a2, 0x3fe204f33a000000, 0x406f63a3d114fd60}, // cf/alpha=0.5: 11.0777 s, overlap 0.5631, makespan 251.11 s
	{0x402655aa4c5ff3f9, 0x3fe1e001ea000000, 0x4070a6864bbb8cab}, // cf/nodedup: 11.1673 s, overlap 0.5586, makespan 266.41 s
	{0x4028211d5c4937a7, 0x3fe1b459e2000000, 0x40720d35cc4f0123}, // cnbf/prefetch=2: 12.0647 s, overlap 0.5533, makespan 288.83 s
	{0x400df2ea59ccfba4, 0x3fe176849c000000, 0x4055d2c57f0acd0e}, // cf/elevator: 3.7436 s, overlap 0.5457, makespan 87.29 s
}

// goldenLoose lists the runs that are not deterministic on the commit the
// values were recorded on, with the relative tolerance they are held to
// instead of exact bits. CF.Rank adds α·w over a map in iteration order, so
// with α = 0.2 two identical waiting queries can rank one ulp apart instead
// of tying. Of the 24 runs only the 256-deep batch queue under cf ever shows
// it: over 1,200 runs the goldenRuns row 80 % of the time, 157.30 s 20 %,
// 157.38 s 0.7 % — schedules that differ in which of two twins ran first.
// Summing in a fixed order gives the goldenRuns row every time; until the
// ranks do, any of these is the configuration's figure, and a change to how
// the stack is assembled would move it by far more than 0.5 %.
var goldenLoose = map[string]float64{"batch/cf": 0.005}

var goldenLoad = []uint64{0x404487989dbff63d, 0x4050ec864ec7fe77, 0x404341f5cfc5d78c, 0x3fe0ced8676f3122, 0x3fdf1498147ae148, 0x40520281d749ed23} // p50 41.0593 p95 67.6957 mean 38.5153 reuse 0.5252 bytes 0.4856 final 72.039

// goldenLoadCost is the same stream under DSPolicy "cost" (recorded at PR 22,
// with the cf/elevator row above).
var goldenLoadCost = []uint64{0x404994e3596aec89, 0x4053a9ae88de64ff, 0x4046bb1228a44581, 0x3fe19df014afd6a0, 0x3fddec10a3d130fa, 0x4055c956348b5e29} // p50 51.1632 p95 78.6513 mean 45.4615 reuse 0.5505 bytes 0.4675 final 87.146

const goldenLoadMeasured = 99

var goldenVolume = [][]string{
	{"FIFO", "50.160", "0.854", "983.932"},
	{"MUF", "46.414", "0.851", "981.545"},
	{"FF", "38.543", "0.856", "893.680"},
	{"CF", "52.490", "0.852", "1112.552"},
	{"CNBF", "36.689", "0.853", "889.876"},
	{"SJF", "37.953", "0.858", "897.083"},
}
