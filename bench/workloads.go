package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	_ "repro/internal/experiments" // registers scale, ctlstress, fig2c (and fleet)
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// workload is one closed-loop benchmark load: a registered scenario at
// fixed parameters, run over a fixed pool of inputs (simulation seeds
// 1..poolSize). One harness goroutine runs iteration after iteration
// (runtime.GC, Build, Execute); the next starts when the previous
// returns.
//
// The pool is fixed because the scenarios are chaotic in their seed: on
// ecmp, where flows hash onto 2, 3 or 4 of the paths, allocated bytes
// differ by 25 % between seeds. A run that drew its own inputs would
// measure its draw, not the code. The -seed flag therefore decides the
// order in which a run visits the pool, every run visits all of it, and
// the headline number is the median over inputs of each input's own value
// (see summarize).
type workload struct {
	Name     string
	Scenario string
	Params   map[string]string
	// Smoke shrinks the run for the tier-1 tests; it exercises the same
	// code path at a fraction of the size.
	Smoke map[string]string
	Why   string
	// Visits is how often a 20 s run visits every input of the pool: the
	// timed set is poolSize x Visits iterations, sized on the reference
	// box to fill those 20 s.
	Visits int
	// Digests pins the simulated output of every pool input (see
	// digestOf), so each iteration of each run is checked, whatever -seed.
	Digests [poolSize]string
}

// poolSize is the number of inputs per workload. Eight leave room for
// three to four visits of every input in a 20 s run.
const poolSize = 8

// visitOrder is the order in which a run visits the pool: a permutation
// of the inputs 1..poolSize drawn from the run's seed.
func visitOrder(seed int64) []int64 {
	order := make([]int64, poolSize)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(poolSize) {
		order[i] = int64(j + 1)
	}
	return order
}

// outputCheck compares every iteration's digest with its input's pin. An
// input without a pin (smoke size) must agree with its own first run.
type outputCheck struct {
	name      string
	want      map[int64]string
	attempted int
	failed    int
	errors    []string
}

func newOutputCheck(w workload, smoke bool) *outputCheck {
	c := &outputCheck{name: w.Name, want: map[int64]string{}}
	if !smoke {
		for i, d := range w.Digests {
			if d != "" {
				c.want[int64(i+1)] = d
			}
		}
	}
	return c
}

// check counts the iteration and, when checked, holds its digest to the
// input's; a mismatch becomes the iteration's error. Iterations whose
// scenario parameters change the result's scalars (trace=) are run
// unchecked: they can only fail by error.
func (c *outputCheck) check(input int64, r iterResult, checked bool) iterResult {
	c.attempted++
	if r.Err == nil && checked {
		if c.want[input] == "" {
			c.want[input] = r.Digest
		}
		if r.Digest != c.want[input] {
			r.Err = fmt.Errorf("digest %s, want %s", r.Digest, c.want[input])
		}
	}
	if r.Err != nil {
		c.failed++
		c.errors = append(c.errors, fmt.Sprintf("%s input %d: %v", c.name, input, r.Err))
	}
	return r
}

// The four workloads. Sizes put one iteration at 0.6–0.9 s on the 2-core
// reference box, long enough that scheduler noise stays a few percent and
// short enough that a 20 s run holds 24 or 32 iterations.
var workloads = []workload{
	{
		Name:     "bulk",
		Scenario: "scale",
		Params: map[string]string{"conns": "32", "subflows": "2", "kb": "8192", "servers": "4",
			"sched": "lowest-rtt", "wall": "false", "shards": "1"},
		Smoke:   map[string]string{"conns": "4", "kb": "128"},
		Why:     "pure data path: sim dispatch, netem links, tcp send/ack, mptcp pick and in-order reassembly, pools; kernel path manager, so no userspace control plane and negligible set-up",
		Visits:  4,
		Digests: [poolSize]string{"535d64db39e9e6e2", "30693072e3824c12", "1e8d758b6bb13eb5", "fab74a997fcfb9d8", "7ecfc64ef2c09f46", "7c71a5bc513b84b3", "d8c3b51d79fd80ad", "14621029574157e8"},
	},
	{
		Name:     "churn",
		Scenario: "ctlstress",
		Params: map[string]string{"conns": "256", "subflows": "2", "kb": "16",
			"flap_every": "40ms", "flap_down": "15ms"},
		Smoke:   map[string]string{"conns": "8", "flap_every": "150ms", "flap_down": "60ms"},
		Why:     "control plane: interface flaps drive ~28k Netlink events and ~14k fullmesh decisions per cell; nlmsg codec, NetlinkPM/Library and subflow handshakes dominate, data is ~1% of segments",
		Visits:  4,
		Digests: [poolSize]string{"3bf260432603bd91", "fe9ab97f5e6fbe1a", "09d2efc5def00dee", "7b56ee4fe4fda754", "80a69db07cb2795e", "02e8fafd19c3ae43", "c2018f05bf05797d", "4bb5234461449fc3"},
	},
	{
		Name:     "ecmp",
		Scenario: "fig2c",
		Params:   map[string]string{"trials": "2", "mb": "50"},
		Smoke:    map[string]string{"trials": "1", "mb": "2"},
		Why:      "data path under reordering: 5 subflows over 4 unequal-delay ECMP paths, so reassembly runs out of order and every packet is flow-hashed; shows a data-path change that helps bulk but hurts reordering",
		Visits:   3,
		Digests:  [poolSize]string{"5e111653c34a5835", "99a602640df98a4d", "0a8a05be6c1945df", "fc45e66b363124a5", "b1068e90c33f187c", "b11a5dc073199135", "d9e0fbfcb0a0ecb6", "844456b1ef9685dc"},
	},
	{
		Name:     "fleet",
		Scenario: "fleet",
		Params:   map[string]string{"devices": "1000"},
		Smoke:    map[string]string{"devices": "24", "duration": "6s", "kb": "32"},
		Why:      "per-connection cost: 1000 stacks and topology legs built and torn down, ~3k handovers as global events, ~47 data segments per device; construction, handshakes and global events carry the cost",
		Visits:   4,
		Digests:  [poolSize]string{"4a4dcab37cd99048", "1a0bbef8f970d3e8", "a204c6c3c07f97bd", "d4fda4b0c5672170", "018f31cd7cca8d5b", "7acdf7a784a45f86", "03aaaefd103df026", "13cf84c37438c3cb"},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params returns the workload's scenario parameters plus extras (the
// traced pass adds `metrics`, the observer section `trace`/`shards`).
func (w workload) params(smoke bool, extra map[string]string) *scenario.Params {
	p := scenario.NewParams(w.Params)
	if smoke {
		for k, v := range w.Smoke {
			p.Set(k, v)
		}
	}
	for k, v := range extra {
		p.Set(k, v)
	}
	return p
}

// digestOf is the output check: the first 64 bits of the SHA-256 over the
// encoded result with the wall-clock-tagged scalars removed, plus the
// report text. Everything that remains is simulated, so it repeats
// exactly for an input — across iterations, processes, shard counts, and
// with tracing on.
func digestOf(res *stats.Result) (string, error) {
	d := res.Data()
	for _, k := range d.Wall {
		delete(d.Scalars, k)
	}
	buf, err := d.Encode()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(buf)
	h.Write([]byte(res.Report))
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// iterOpts selects what one iteration records beyond the end-to-end
// numbers. The zero value is the untraced timed iteration.
type iterOpts struct {
	smoke bool
	extra map[string]string // extra scenario parameters
	// bare runs Build and Execute with no probe appended at all (the
	// harness-overhead reference); setup, events and segs stay zero.
	bare bool
	// heapLive forces a GC at the last run's Collect and records the
	// live heap there, with every stack of the iteration still
	// referenced. It distorts the timings, so such an iteration is never
	// part of a timed set.
	heapLive bool
	// spans records the layer-boundary spans of the traced pass.
	spans *spanLog
	// cpu, when non-nil, profiles the timed part of the iteration.
	cpu *cpuProfiler
	// counters, when non-nil, receives the `metrics=` registry counters
	// summed over the spec's runs (the metrics sections are cut from the
	// report again so the digest matches the unmetered run).
	counters map[string]uint64
}

// iterResult is one iteration's measurements. All times are host time.
type iterResult struct {
	Wall, CPU, Setup float64 // seconds
	Allocs           uint64  // MemStats.Mallocs delta
	AllocBytes       uint64  // MemStats.TotalAlloc delta
	HeapLive         uint64  // bytes, heapLive iterations only
	Events           uint64  // simulator events, summed over runs
	Segs             uint64  // segments delivered to hosts, summed over runs
	Conns            int     // client endpoints, summed over runs
	Digest           string
	Err              error // panic, build error, or (set by outputCheck) wrong digest
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// observer is the harness's only hook into a run: probes appended to each
// RunSpec. It never touches simulated state, so the decorated spec's
// Result is byte-identical to the undecorated one (TestObserverProperty).
type observer struct {
	opts     iterOpts
	res      *iterResult
	heapBase uint64
	lastEnd  time.Time // Execute entry, then each run's last Collect
	setup    time.Duration
	nruns    int
	seen     int
}

// decorate hangs the observer on every run of the spec.
func (o *observer) decorate(sp *scenario.Spec) {
	o.nruns = len(sp.Runs)
	for _, rs := range sp.Runs {
		if o.opts.counters != nil {
			o.wrapMetricsProbe(rs)
		}
		last := scenario.Probe{Name: "bench", Arm: o.arm, Collect: o.collect}
		if sl := o.opts.spans; sl != nil {
			// The traced pass brackets the other probes: a first probe
			// whose Arm ends stack construction and whose Collect ends
			// the simulation, and the last probe above.
			inner := rs.Topology
			rs.Topology = spanTopology{Topology: inner, log: sl, restore: func() { rs.Topology = inner }}
			first := scenario.Probe{Name: "bench.first",
				Arm:     func(*scenario.Run) { sl.end("stacks") },
				Collect: func(*scenario.Run) { sl.end("simulate"); sl.begin("collect") }}
			rs.Probes = append([]scenario.Probe{first}, rs.Probes...)
			last.Arm = func(rt *scenario.Run) { o.arm(rt); sl.begin("simulate") }
			last.Collect = func(rt *scenario.Run) { o.collect(rt); sl.end("collect") }
		}
		rs.Probes = append(rs.Probes, last)
	}
	if sl := o.opts.spans; sl != nil && sp.Render != nil {
		render := sp.Render
		sp.Render = func(res *stats.Result, runs []*scenario.Run) {
			sl.begin("render")
			render(res, runs)
			sl.end("render")
		}
	}
}

func (o *observer) arm(*scenario.Run) {
	o.setup += time.Since(o.lastEnd)
}

func (o *observer) collect(rt *scenario.Run) {
	o.res.Events += rt.Sim.Processed()
	for _, h := range rt.Net.Servers {
		o.res.Segs += h.Stats.Delivered
	}
	for _, c := range rt.Net.Clients {
		o.res.Segs += c.Host.Stats.Delivered
	}
	o.res.Conns += len(rt.Net.Clients)
	o.seen++
	if o.opts.heapLive && o.seen == o.nruns {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > o.heapBase {
			o.res.HeapLive = ms.HeapAlloc - o.heapBase
		}
	}
	o.lastEnd = time.Now()
}

// wrapMetricsProbe wraps the probe `metrics=` appended: after it rendered
// the registry into the report, take the snapshot and cut the rendered
// section off again, so a metered iteration digests like a plain one.
func (o *observer) wrapMetricsProbe(rs *scenario.RunSpec) {
	for i := range rs.Probes {
		if rs.Probes[i].Name != "metrics" {
			continue
		}
		inner := rs.Probes[i].Collect
		rs.Probes[i].Collect = func(rt *scenario.Run) {
			n := len(rt.Result.Report)
			inner(rt)
			rt.Result.Report = rt.Result.Report[:n]
			foldCounters(o.opts.counters, rt.Registry.Snapshot())
		}
	}
}

// foldCounters adds a snapshot into dst: counters and histograms sum
// across runs, gauges (high-water marks) take the maximum.
func foldCounters(dst map[string]uint64, snap *metrics.Snapshot) {
	for _, m := range snap.Metrics {
		if m.Kind == metrics.KindGauge.String() {
			dst[m.Name] = max(dst[m.Name], m.Value)
		} else {
			dst[m.Name] += m.Value
		}
	}
}

// runIter executes one iteration of w on one input (the simulation seed):
// an untimed GC, then Build and Execute timed together. A panic anywhere
// inside (the engine reports scenario failures that way) becomes the
// iteration's error.
func runIter(w workload, input int64, opts iterOpts) (r iterResult) {
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Errorf("%s: panic: %v", w.Name, p)
		}
	}()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	obs := &observer{opts: opts, res: &r, heapBase: m0.HeapAlloc}
	sl := opts.spans
	if opts.cpu != nil {
		if err := opts.cpu.start(); err != nil {
			r.Err = err
			return r
		}
		defer opts.cpu.stop()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	if sl != nil {
		sl.startIteration(t0)
		sl.begin("build")
	}
	sp, err := scenario.Build(w.Scenario, w.params(opts.smoke, opts.extra))
	if err != nil {
		r.Err = err
		return r
	}
	if !opts.bare {
		obs.decorate(sp)
	}
	if sl != nil {
		sl.end("build")
	}
	obs.lastEnd = time.Now()
	obs.setup = obs.lastEnd.Sub(t0)
	res := scenario.Execute(sp, input)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if sl != nil {
		sl.endIteration(t0.Add(wall))
	}
	r.Wall = wall.Seconds()
	r.CPU = cpu1 - cpu0
	r.Setup = obs.setup.Seconds()
	r.Allocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.Digest, r.Err = digestOf(res)
	return r
}
