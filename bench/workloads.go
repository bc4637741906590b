package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mqsched"
	"mqsched/internal/cluster"
	"mqsched/internal/experiment"
	"mqsched/internal/netproto"
	"mqsched/internal/stats"
	"mqsched/internal/trace"
	"mqsched/internal/vm"
)

// runCfg is one measured pass over a workload.
type runCfg struct {
	seed int64
	// seconds is how long the pass may take. An end-to-end pass repeats its
	// round of epochs for as long as another round fits in it; a per-layer
	// pass is cut short by it on a seed or a commit that is unexpectedly slow.
	seconds float64
	// count, when set, makes the pass a per-layer one: a single epoch of that
	// many queries, so that it does identical work and its counts repeat from
	// run to run.
	count  int
	traced bool
	// scale shrinks epochs, warm-up and probe sizes; the smoke test sets it.
	scale float64
}

// epoch is one system lifetime inside a pass — a fresh system (or cluster,
// or simulated run) set up, warmed up, and then measured over a fixed count
// of queries.
//
// An end-to-end pass draws a handful of inputs from the workload's corpus and
// runs one epoch per input, round after round. The repeats of one input do
// identical work, so what tells them apart is what else the machine was doing
// (a neighbour on the host slows identical work by up to 1.8×, for seconds at
// a stretch, and only ever slows it). Each timing is therefore taken, per
// input, from its fastest repeat and then averaged over the inputs.
type epoch struct {
	input   int // which of the pass's inputs this epoch repeats
	setupS  float64
	samples []sample // answered queries, in issue order
	use     usage
}

// draw picks k of a corpus's n instances, numbered from 1, in an order of the
// seed's choosing. The corpus is small and a run covers most of it because
// instances differ far more from each other than commits do (a browse layout
// serves 700 to 2,000 queries per second depending on where its hotspots
// fell): runs on disjoint instances would differ by more than any bound.
func draw(seed int64, n, k int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int64, min(k, n))
	for i := range out {
		out[i] = int64(perm[i]) + 1
	}
	return out
}

// rounds calls round — one epoch per input — twice, and then again for as
// long as one more is likely to end within the pass's seconds.
func (rc runCfg) rounds(round func(n int) error) error {
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		if err := round(n); err != nil {
			return err
		}
		if n >= 1 && time.Since(start)+time.Since(t0) > time.Duration(rc.seconds*float64(time.Second)) {
			return nil
		}
	}
}

// result is what one pass produced.
type result struct {
	epochs    []epoch
	attempted int
	failed    int
	ctr       counters // summed over epochs
	// layer holds layer metrics the workload measures itself (sim.*,
	// cluster.*, netproto.*).
	layer map[string]float64
	// Traced passes only: the spans of the pass's single epoch.
	spans   []trace.Span
	dropped uint64
}

// samples pools the epochs' samples.
func (r *result) samples() []sample {
	var out []sample
	for _, e := range r.epochs {
		out = append(out, e.samples...)
	}
	return out
}

// use sums the epochs' windows.
func (r *result) use() usage {
	var u usage
	for _, e := range r.epochs {
		u.add(e.use)
	}
	return u
}

type workload struct {
	name string
	why  string
	run  func(rc runCfg) (*result, error)
	// stream replays the workload's queries for the probes; slideSide is the
	// edge of the three slides they are asked of.
	stream    func(seed int64) stream
	slideSide int64
	// layerCount is how many queries a per-layer pass measures. It is frozen,
	// so that those passes do identical work on every commit.
	layerCount int
}

var workloads = []workload{
	{
		name:       "paper_sim",
		why:        "the paper's experiment in virtual time: 16 clients x 16 queries on modelled disks, PS 32 MB << 7.5 GB; moves with policy, cache and I/O scheduling, never with pixels or wire",
		run:        runPaperSim,
		stream:     paperStream,
		slideSide:  paperSide,
		layerCount: 3072,
	},
	{
		name: "browse_uptime",
		why:  "one viewer replaying the Zipf browse on a null device, a fresh system per 1,000 queries: the reuse path (sched edges, spatial index, data store lookup and projection) as its state ages",
		run: func(rc runCfg) (*result, error) {
			return runReal(rc, realSpec{stream: browseStream, dsBudget: 64 << 20, outstanding: 1, warmup: 200, measured: 800, corpus: 6, inputs: 6})
		},
		stream:     browseStream,
		slideSide:  realSide,
		layerCount: 2500,
	},
	{
		name: "scan_mem",
		why:  "disjoint tiles, data store too small to reuse anything: every pixel computed from resident pages, 8 queries in flight; the bypass workload for reuse and wire changes",
		run: func(rc runCfg) (*result, error) {
			return runReal(rc, realSpec{stream: scanStream, dsBudget: 8 << 20, outstanding: 8, warmup: 200, measured: 800, corpus: 384, inputs: 3})
		},
		stream:     scanStream,
		slideSide:  realSide,
		layerCount: 5000,
	},
	{
		name: "browse_wire",
		why:  "the same browse through router + 2 backends on loopback with 768 KB pixel replies: the only workload where netproto and cluster work; what a remote viewer sees",
		run: func(rc runCfg) (*result, error) {
			return runReal(rc, realSpec{stream: browseStream, dsBudget: 64 << 20, warmup: 200, measured: 600, corpus: 5, inputs: 4, backends: 2})
		},
		stream:     browseStream,
		slideSide:  realSide,
		layerCount: 3000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	oracleCount = 32  // leading queries of every real stream checked against vm.RenderOracle
	psBudget    = 256 // MB; holds all 2,352 pages of the real slides
	wireConns   = 2   // browse_wire's closed-loop connections; no more than nproc
)

// stopper decides when an epoch's closed loop stops issuing: when its count
// is reached or, on a machine too slow to get there, the pass's time is up.
func (rc runCfg) stopper(count int) func(issued int) bool {
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	return func(issued int) bool {
		return issued >= count || !time.Now().Before(deadline)
	}
}

// checker counts attempts and failures. A failed query gets no latency
// sample. It is shared by the warm-up and the measured loop because a wrong
// pixel during warm-up disqualifies the run just as well.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	mismatch  int // oracle mismatches (a subset of failed)
	outBytes  int64
	firstErr  string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(format, args...)
}

func (c *checker) failLocked(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// reply validates one answer: no error, the right dimensions, three bytes
// per pixel, and — when the caller has the oracle's image — the right bytes.
func (c *checker) reply(m vm.Meta, width, height int64, pixels []byte, errText string, want []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	out := m.OutRect()
	switch {
	case errText != "":
		c.failLocked("%v: %s", m, errText)
	case width != out.Dx() || height != out.Dy():
		c.failLocked("%v: got %dx%d, want %dx%d", m, width, height, out.Dx(), out.Dy())
	case int64(len(pixels)) != out.Area()*vm.BytesPerPixel:
		c.failLocked("%v: got %d pixel bytes, want %d", m, len(pixels), out.Area()*vm.BytesPerPixel)
	case want != nil && !bytes.Equal(pixels, want):
		c.mismatch++
		c.failLocked("%v: pixels differ from vm.RenderOracle", m)
	default:
		c.outBytes += int64(len(pixels))
		return true
	}
	return false
}

// corruptReply, when set by the smoke test, damages the pixels of the n-th
// reply of every loop so the test can see the gate close.
var corruptReply = -1

func maybeCorrupt(n int, pixels []byte) []byte {
	if n != corruptReply || len(pixels) == 0 {
		return pixels
	}
	bad := append([]byte(nil), pixels...)
	bad[len(bad)/2] ^= 0xff
	return bad
}

// oracleImages renders the expected images of a stream's first queries.
func oracleImages(s stream) [][]byte {
	imgs := make([][]byte, oracleCount)
	for i := range imgs {
		imgs[i] = vm.RenderOracle(s())
	}
	return imgs
}

// ---- the real-runtime workloads: browse_uptime, scan_mem, browse_wire ----

// realSpec is what tells the three real-runtime workloads apart. They share
// one base: mqsched.Config{Mode: Real, TimeScale: 1e-9, PSBudget: 256 MB},
// all else default, over three 4096² slides whose pages are all resident
// before the first measured query.
type realSpec struct {
	stream      func(seed int64) stream
	dsBudget    int64
	outstanding int // in-process: queries one dispatcher keeps in flight
	warmup      int // queries answered before the window opens
	measured    int // queries an end-to-end epoch measures
	corpus      int // stream seeds 1..corpus are the instances a run draws its inputs from
	inputs      int // how many of them one run covers, each once per round
	backends    int // 0: in process through the facade; n: router + n backends over TCP
}

func realConfig(dsBudget int64, rc runCfg) mqsched.Config {
	cfg := mqsched.Config{
		Mode:      mqsched.Real,
		TimeScale: 1e-9, // every modelled sleep truncates to zero: a null device
		PSBudget:  psBudget << 20,
		DSBudget:  dsBudget,
	}
	if rc.traced {
		cfg.TraceSpans = true
		cfg.EnableMetrics = true
		cfg.TraceCapacity = traceCapacity
	}
	return cfg
}

// loopFunc runs one closed loop over a stream until stop says so and returns
// the answered queries in issue order. want, when not nil, holds the
// oracle's images of the loop's first queries.
type loopFunc func(next stream, stop func(int) bool, chk *checker, want [][]byte, ct *clientTrace) []sample

// target is a system under test as the harness sees it: something to send a
// closed loop of queries at, and the mqsched systems behind it to read
// counters and spans from.
type target struct {
	systems []*mqsched.System
	offsets []time.Duration // each system's clock minus the harness's
	router  *cluster.Router // nil in process
	loop    loopFunc
	close   func()
}

// inProcess runs fn as a client process of sys and waits for it.
func inProcess(sys *mqsched.System, fn func(ctx mqsched.Ctx)) {
	done := make(chan struct{})
	sys.Start("bench", func(ctx mqsched.Ctx) {
		defer close(done)
		fn(ctx)
	})
	<-done
}

// touchPages makes every page of every slide resident by running one
// whole-slide query per slide, so that synthetic page generation stays out
// of the measured window. It returns the offset of the system's clock from
// the harness's, which the traced pass needs to put both on one time line.
func touchPages(sys *mqsched.System, epoch time.Time) (time.Duration, error) {
	var offset time.Duration
	var err error
	inProcess(sys, func(ctx mqsched.Ctx) {
		for _, s := range slides(realSide) {
			at := time.Since(epoch)
			var tk *mqsched.Ticket
			tk, err = sys.Submit(mqsched.NewVMQuery(s.Name, mqsched.R(0, 0, s.Width, s.Height), 8, mqsched.Subsample))
			if err != nil {
				return
			}
			offset = at - tk.Wait(ctx).Arrival
		}
	})
	return offset, err
}

// openFacade builds one system behind the mqsched facade.
func openFacade(spec realSpec, rc runCfg, epoch time.Time) (*target, error) {
	sys, err := mqsched.New(realConfig(spec.dsBudget, rc), realTable())
	if err != nil {
		return nil, err
	}
	offset, err := touchPages(sys, epoch)
	if err != nil {
		sys.Server().Close()
		return nil, err
	}
	return &target{
		systems: []*mqsched.System{sys},
		offsets: []time.Duration{offset},
		close:   sys.Server().Close,
		loop: func(next stream, stop func(int) bool, chk *checker, want [][]byte, ct *clientTrace) (out []sample) {
			inProcess(sys, func(ctx mqsched.Ctx) {
				out = facadeLoop(ctx, sys, next, spec.outstanding, stop, chk, want, ct)
			})
			return out
		},
	}, nil
}

// facadeLoop keeps `outstanding` queries in flight from one dispatcher until
// stop says so, then drains. With outstanding == 1 it is a viewer who waits
// for an image before panning.
func facadeLoop(ctx mqsched.Ctx, sys *mqsched.System, next stream, outstanding int, stop func(int) bool, chk *checker, want [][]byte, ct *clientTrace) []sample {
	type pending struct {
		tk *mqsched.Ticket
		m  vm.Meta
		t0 time.Time
		sp *clientSpan
		i  int
	}
	var ring []pending
	var out []sample
	issued := 0
	for {
		for len(ring) < outstanding && !stop(issued) {
			m := next()
			sp := ct.start(issued)
			sp.phase("issue")
			t0 := time.Now()
			tk, err := sys.Submit(m)
			sp.phase("wait")
			if err != nil {
				chk.reply(m, 0, 0, nil, err.Error(), nil)
			} else {
				ring = append(ring, pending{tk, m, t0, sp, issued})
			}
			issued++
		}
		if len(ring) == 0 {
			return out
		}
		p := ring[0]
		ring = ring[1:]
		res := p.tk.Wait(ctx)
		lat := time.Since(p.t0)
		p.sp.phase("reply")
		var expect []byte
		if p.i < len(want) {
			expect = want[p.i]
		}
		ok := false
		if res.Canceled || res.Blob == nil {
			chk.reply(p.m, 0, 0, nil, "canceled", nil)
		} else {
			grid := p.m.OutRect()
			ok = chk.reply(p.m, grid.Dx(), grid.Dy(), maybeCorrupt(p.i, res.Blob.Data), "", expect)
		}
		p.sp.finish()
		if ok {
			out = append(out, sample{
				lat:  float64(lat) / 1e6,
				wait: float64(res.WaitTime()) / 1e6,
				exec: float64(res.ExecTime()) / 1e6,
			})
		}
	}
}

// openCluster boots router + backends on loopback with every backend's pages
// resident. With direct set, the loop bypasses the router and talks to the
// first backend.
func openCluster(spec realSpec, rc runCfg, epoch time.Time, direct bool) (*target, error) {
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Backends: spec.backends,
		Slides:   slides(realSide),
		System:   realConfig(spec.dsBudget, rc),
	})
	if err != nil {
		return nil, err
	}
	t := &target{systems: h.Systems, router: h.Router, close: h.Close}
	for _, sys := range h.Systems {
		offset, err := touchPages(sys, epoch)
		if err != nil {
			h.Close()
			return nil, err
		}
		t.offsets = append(t.offsets, offset)
	}
	addr := h.Addr
	if direct {
		addr = h.BackendAddrs[0]
	}
	t.loop = func(next stream, stop func(int) bool, chk *checker, want [][]byte, ct *clientTrace) []sample {
		return wireLoop(addr, next, stop, chk, want, ct)
	}
	return t, nil
}

func request(m vm.Meta) *netproto.Request {
	return &netproto.Request{
		Slide: m.DS, X0: m.Rect.X0, Y0: m.Rect.Y0, X1: m.Rect.X1, Y1: m.Rect.Y1,
		Zoom: m.Zoom, Op: m.Op.String(),
	}
}

// wireLoop is the closed loop over TCP: one dispatcher hands the stream's
// queries to wireConns connections, each of which waits for its decoded
// reply, pixels included, before taking the next.
func wireLoop(addr string, next stream, stop func(int) bool, chk *checker, want [][]byte, ct *clientTrace) []sample {
	type item struct {
		i int
		m vm.Meta
	}
	type indexed struct {
		i int
		s sample
	}
	work := make(chan item)
	var mu sync.Mutex
	var got []indexed
	var wg sync.WaitGroup
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := netproto.NewClient(addr, 0)
			defer cl.Close()
			for it := range work {
				sp := ct.start(it.i)
				sp.phase("issue")
				req := request(it.m)
				sp.phase("wire")
				t0 := time.Now()
				resp, err := cl.Do(req)
				lat := time.Since(t0)
				sp.phase("reply")
				var expect []byte
				if it.i < len(want) {
					expect = want[it.i]
				}
				ok := false
				if err != nil {
					chk.reply(it.m, 0, 0, nil, err.Error(), nil)
				} else {
					ok = chk.reply(it.m, resp.Width, resp.Height, maybeCorrupt(it.i, resp.Pixels), resp.Err, expect)
				}
				sp.finish()
				if ok {
					mu.Lock()
					got = append(got, indexed{it.i, sample{lat: float64(lat) / 1e6, wait: resp.WaitMS, exec: resp.ExecMS}})
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; !stop(i); i++ {
		work <- item{i, next()}
	}
	close(work)
	wg.Wait()
	sort.Slice(got, func(a, b int) bool { return got[a].i < got[b].i })
	out := make([]sample, len(got))
	for i, g := range got {
		out[i] = g.s
	}
	return out
}

// realEpoch is one lifetime over the stream of streamSeed: open the target,
// answer the warm-up, then measure one closed loop of count queries. With
// oracle set, the warm-up's first replies are compared with vm.RenderOracle.
func realEpoch(spec realSpec, rc runCfg, streamSeed int64, count int, oracle, direct bool, chk *checker, res *result) (epoch, error) {
	var ep epoch
	warmup := max(oracleCount, int(float64(spec.warmup)*rc.scale))
	var want [][]byte
	if oracle {
		want = oracleImages(spec.stream(streamSeed)) // harness work, kept out of set-up time
	}
	start := time.Now()
	var t *target
	var err error
	if spec.backends > 0 {
		t, err = openCluster(spec, rc, start, direct)
	} else {
		t, err = openFacade(spec, rc, start)
	}
	if err != nil {
		return ep, err
	}
	defer t.close()
	s := spec.stream(streamSeed)
	t.loop(s, func(issued int) bool { return issued >= warmup }, chk, want, nil)
	ep.setupS = time.Since(start).Seconds()

	var ct *clientTrace
	if rc.traced {
		ct = newClientTrace(start)
	}
	before := readCounters(t.systems...)
	var routerBefore cluster.Stats
	if t.router != nil {
		routerBefore = t.router.Stats()
	}
	outBefore := chk.outBytes
	mt := startMeter()
	ep.samples = t.loop(s, rc.stopper(count), chk, nil, ct)
	ep.use = mt.stop()
	ctr := readCounters(t.systems...).minus(before)
	carried := chk.outBytes - outBefore
	if got := ctr[cReusedOut] + ctr[cComputedOut]; got != carried {
		chk.fail("byte conservation: reused+computed = %d, replies carried %d", got, carried)
	}
	if t.router != nil && !direct {
		routerMetrics(routerBefore, t.router.Stats(), res.layer)
		res.layer["netproto.bytes_per_query"] = ratio(float64(carried), float64(len(ep.samples)))
	}
	if rc.traced {
		res.spans, res.dropped = mergeSpans(ct, t.systems, t.offsets)
	}
	res.ctr.add(ctr)
	return ep, nil
}

// runReal measures a real-runtime workload. An end-to-end pass draws
// spec.inputs stream seeds from the corpus and runs one lifetime per input,
// round after round; the first round checks every input against the oracle.
// A per-layer pass runs one lifetime on the run's own seed; for browse_wire
// it then, untraced, runs a second one straight at a single backend: the
// difference is the router hop.
func runReal(rc runCfg, spec realSpec) (*result, error) {
	chk := &checker{}
	res := &result{layer: map[string]float64{}}
	var err error
	if rc.count > 0 {
		err = runRealLayers(rc, spec, chk, res)
	} else {
		inputs := draw(rc.seed, spec.corpus, max(1, int(float64(spec.inputs)*rc.scale)))
		count := max(oracleCount, int(float64(spec.measured)*rc.scale))
		err = rc.rounds(func(n int) error {
			for i, streamSeed := range inputs {
				ep, err := realEpoch(spec, rc, streamSeed, count, n == 0, false, chk, res)
				if err != nil {
					return err
				}
				ep.input = i
				res.epochs = append(res.epochs, ep)
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = chk.attempted, chk.failed
	res.layer["vm.oracle_mismatches"] = float64(chk.mismatch)
	if chk.firstErr != "" {
		fmt.Fprintln(errOut, "first failure:", chk.firstErr)
	}
	return res, nil
}

func runRealLayers(rc runCfg, spec realSpec, chk *checker, res *result) error {
	ep, err := realEpoch(spec, rc, rc.seed, rc.count, true, false, chk, res)
	if err != nil {
		return err
	}
	res.epochs = append(res.epochs, ep)
	if spec.backends == 0 || rc.traced {
		return nil
	}
	dspec := spec
	dspec.backends = 1
	dres := &result{layer: map[string]float64{}}
	dep, err := realEpoch(dspec, rc, rc.seed, rc.count, true, true, chk, dres)
	if err != nil {
		return err
	}
	// What the client waited beyond the backend's own response time. The
	// direct arm's share is the wire; what the routed arm adds to it is
	// the router hop. Server time is subtracted on both sides, so a
	// backend that serves the whole stream alone and ages faster does not
	// pass for a slow wire.
	beyondServer := func(ss []sample) float64 {
		over := make([]float64, len(ss))
		for i, s := range ss {
			over[i] = s.lat - s.wait - s.exec
		}
		return median(over)
	}
	res.layer["netproto.wire_ms_p50"] = beyondServer(dep.samples)
	res.layer["cluster.hop_ms_p50"] = beyondServer(ep.samples) - beyondServer(dep.samples)
	return nil
}

// ---- paper_sim: the paper's experiment on the simulated runtime ----

// paper_sim's corpus is the paper's workload for generator seeds 1 to
// simCorpus; a run covers simInputs of them, each under both operators. A
// simulated run is 256 queries and takes 0.4 s today. The simulator is
// deterministic and does not age, so the repeats of a run differ in wall and
// CPU time only, never in a virtual-time latency.
const (
	simCorpus = 10
	simInputs = 8
)

type simRun struct {
	samples  []sample
	respS    []float64 // response times in virtual seconds, completion order
	overlap  float64   // mean reused fraction, summed in completion order
	makespan float64   // virtual seconds
	ctr      counters
	spans    []trace.Span
	dropped  uint64
}

// simulate runs the paper's interactive closed loop — each of 16 clients
// waits for its image before asking for the next — through the facade.
func simulate(seed int64, op vm.Op, traced bool) (*simRun, error) {
	table := mqsched.NewSlideTable(slides(paperSide)...)
	cfg := mqsched.Config{Mode: mqsched.Simulated}
	if traced {
		cfg.TraceSpans = true
		cfg.EnableMetrics = true
		cfg.TraceCapacity = traceCapacity
	}
	sys, err := mqsched.New(cfg, table)
	if err != nil {
		return nil, err
	}
	run := &simRun{}
	var submitErr error
	var finish time.Duration
	for c, qs := range paperQueries(seed, op, table) {
		sys.Start(fmt.Sprintf("client-%d", c), func(ctx mqsched.Ctx) {
			for _, m := range qs {
				tk, err := sys.Submit(m)
				if err != nil {
					submitErr = err
					return
				}
				r := tk.Wait(ctx)
				run.samples = append(run.samples, sample{
					lat:  float64(r.ResponseTime()) / 1e6,
					wait: float64(r.WaitTime()) / 1e6,
					exec: float64(r.ExecTime()) / 1e6,
				})
				run.respS = append(run.respS, r.ResponseTime().Seconds())
				run.overlap += r.ReusedFrac
				finish = max(finish, r.Completed)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	if submitErr != nil {
		return nil, submitErr
	}
	run.overlap /= float64(len(run.samples))
	run.makespan = finish.Seconds()
	run.ctr = readCounters(sys)
	if traced {
		run.spans, run.dropped = sys.Spans().Spans(), sys.Spans().Dropped()
	}
	return run, nil
}

func runPaperSim(rc runCfg) (*result, error) {
	res := &result{layer: map[string]float64{}}
	seeds := draw(rc.seed, simCorpus, max(1, int(simInputs*rc.scale)))
	rounds := rc.rounds
	if rc.count > 0 {
		// A per-layer pass: consecutive seeds from the run's own, once.
		seeds = seeds[:0]
		for pair := 0; pair < max(1, rc.count/512); pair++ {
			seeds = append(seeds, rc.seed+int64(pair))
		}
		rounds = func(round func(int) error) error { return round(0) }
	}

	var makespans []float64
	var vsec, wall float64
	err := rounds(func(n int) error {
		// Set-up is one reference run of experiment.Run: it warms the heap, and
		// the round's first simulated run must reproduce it to the bit.
		t0 := time.Now()
		ref, err := experiment.Run(experiment.Config{Policy: "cf", Op: vm.Subsample, Seed: seeds[0]})
		if err != nil {
			return err
		}
		setupS := time.Since(t0).Seconds()
		for i, seed := range seeds {
			for j, op := range []vm.Op{vm.Subsample, vm.Average} {
				ep := epoch{input: 2*i + j}
				mt := startMeter()
				run, err := simulate(seed, op, rc.traced)
				if err != nil {
					return err
				}
				ep.use = mt.stop()
				ep.samples = run.samples
				res.attempted += len(run.samples)
				res.ctr.add(run.ctr)
				vsec += run.makespan
				wall += ep.use.wall
				makespans = append(makespans, run.makespan)
				if i == 0 && op == vm.Subsample {
					ep.setupS = setupS
					res.spans, res.dropped = run.spans, run.dropped
					got := stats.TrimmedMean95(run.respS)
					res.layer["sim.trimmed_resp_s"] = got
					if got != ref.TrimmedResponse || run.overlap != ref.AvgOverlap {
						res.failed += len(run.samples)
						fmt.Fprintf(errOut, "first failure: seed %d subsample: trimmed response %v, overlap %v; experiment.Run says %v, %v\n",
							seed, got, run.overlap, ref.TrimmedResponse, ref.AvgOverlap)
					}
				}
				res.epochs = append(res.epochs, ep)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.layer["sim.vsec_per_wall_s"] = ratio(vsec, wall)
	res.layer["sim.makespan_s_mean"] = stats.Mean(makespans)
	return res, nil
}
