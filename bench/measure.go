package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mqsched"
	"mqsched/internal/stats"
)

// sample is one answered query, in milliseconds. On paper_sim the clock is
// the simulator's virtual one; everywhere else it is wall time.
type sample struct {
	lat  float64 // issue → reply in hand
	wait float64 // server-side queue wait
	exec float64 // server-side execution
}

// usage is what the process spent over one measured window.
type usage struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
	// State when the window closed (of the last window, after add).
	heapEndMB     float64
	goroutinesEnd int
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.allocBytes += o.allocBytes
	u.mallocs += o.mallocs
	u.gcCycles += o.gcCycles
	u.gcPauseNS += o.gcPauseNS
	u.heapEndMB, u.goroutinesEnd = o.heapEndMB, o.goroutinesEnd
}

// meter brackets a measured window. The window opens on a collected heap so
// garbage left by set-up is not billed to the first queries.
type meter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:       wall,
		cpu:        cpu - m.cpu,
		allocBytes: ms.TotalAlloc - m.ms.TotalAlloc,
		mallocs:    ms.Mallocs - m.ms.Mallocs,
		gcCycles:   ms.NumGC - m.ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs - m.ms.PauseTotalNs,

		heapEndMB:     float64(ms.HeapAlloc) / (1 << 20),
		goroutinesEnd: runtime.NumGoroutine(),
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// ratio is a/b, and 0 when b is 0: a layer that did no work reports zeros.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies returns the issue→reply times of the samples.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// environment is recorded next to every result, because the numbers mean
// nothing without the machine and the timer they were taken on.
type environment struct {
	Go                string  `json:"go"`
	CPU               string  `json:"cpu"`
	NProc             int     `json:"nproc"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Commit            string  `json:"commit"`
	Sleep100usActualU float64 `json:"sleep_100us_actual_us"`
}

func readEnvironment() environment {
	env := environment{
		Go:         runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     mqsched.BuildInfo()["version"],
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The kernel timer's real cost of a 100 µs sleep: the reason the real
	// workloads run on a null device (TimeScale → 0) instead of scaled sleeps.
	const rounds = 50
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	env.Sleep100usActualU = float64(time.Since(t0).Microseconds()) / rounds
	return env
}
