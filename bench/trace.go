package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// --- spans ---

// span is one layer-boundary interval of a traced iteration. Times are
// host seconds since the harness started. Every span but "iteration" is
// a child of its iteration; spans of one iteration share its id.
type span struct {
	Workload  string  `json:"workload"`
	Iteration int     `json:"iteration"`
	Name      string  `json:"name"`
	Parent    string  `json:"parent,omitempty"`
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
}

// spanNames are the children of an iteration, in the order they occur.
// A multi-run spec repeats topology…collect once per run.
var spanNames = []string{"build", "topology", "stacks", "simulate", "collect", "render"}

// spanLog keeps the spans of the traced pass in memory; the harness
// writes them out once, at the end.
type spanLog struct {
	origin   time.Time
	workload string
	iter     int
	open     map[string]time.Time
	Spans    []span
}

func newSpanLog(origin time.Time) *spanLog {
	return &spanLog{origin: origin, open: make(map[string]time.Time)}
}

func (l *spanLog) rel(t time.Time) float64 { return t.Sub(l.origin).Seconds() }

func (l *spanLog) startIteration(t time.Time) {
	l.iter++
	l.open["iteration"] = t
}

func (l *spanLog) endIteration(t time.Time) {
	l.Spans = append(l.Spans, span{Workload: l.workload, Iteration: l.iter, Name: "iteration",
		Start: l.rel(l.open["iteration"]), End: l.rel(t)})
}

func (l *spanLog) begin(name string) { l.open[name] = time.Now() }

func (l *spanLog) end(name string) {
	l.Spans = append(l.Spans, span{Workload: l.workload, Iteration: l.iter, Name: name, Parent: "iteration",
		Start: l.rel(l.open[name]), End: l.rel(time.Now())})
}

// selfTimes returns, for every span name, the per-iteration sums of its
// durations for one workload. The named spans have no children of their
// own, so a duration is a self time; what an iteration spends outside
// them (world construction, the harness's own reads) is its self time.
func (l *spanLog) selfTimes(workload string) map[string][]float64 {
	perIter := map[int]map[string]float64{}
	var order []int
	for _, s := range l.Spans {
		if s.Workload != workload || s.Name == "iteration" {
			continue
		}
		if perIter[s.Iteration] == nil {
			perIter[s.Iteration] = map[string]float64{}
			order = append(order, s.Iteration)
		}
		perIter[s.Iteration][s.Name] += s.End - s.Start
	}
	out := map[string][]float64{}
	for _, it := range order {
		for _, name := range spanNames {
			out[name] = append(out[name], perIter[it][name])
		}
	}
	return out
}

// spanTopology decorates a run's Topology for the traced pass: it times
// Build, opens the "stacks" span the first probe's Arm closes, and puts
// the original topology back so nothing downstream sees the wrapper.
type spanTopology struct {
	scenario.Topology
	log     *spanLog
	restore func()
}

func (t spanTopology) Build(f sim.Fabric, seed int64) *scenario.Net {
	t.restore()
	t.log.begin("topology")
	n := t.Topology.Build(f, seed)
	t.log.end("topology")
	t.log.begin("stacks")
	return n
}

// --- CPU profile ---

// cpuHz is the sampling rate the traced pass asks for. The runtime's
// default 100 Hz would need 10 s of CPU for 1000 samples. The kernel's
// timer tick caps what is delivered (about 250 Hz on the reference box),
// so the pass runs at least tracedSeconds per workload. runtime/pprof
// resets the rate itself and prints one "cannot set cpu profile rate"
// line per start to stderr when it finds it already set — that line is
// expected.
const cpuHz = 1000

// cpuProfiler collects one profile per traced iteration, started after
// the iteration's untimed GC so only the timed part is sampled.
type cpuProfiler struct {
	buf      bytes.Buffer
	profiles [][]byte
}

func (p *cpuProfiler) start() error {
	p.buf.Reset()
	runtime.SetCPUProfileRate(cpuHz)
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfiler) stop() {
	pprof.StopCPUProfile()
	p.profiles = append(p.profiles, append([]byte(nil), p.buf.Bytes()...))
}

// shares folds every collected sample onto its layer and returns each
// layer's share of the total, with the total sample count.
func (p *cpuProfiler) shares() (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total int64
	for _, raw := range p.profiles {
		stacks, err := parseProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, st := range stacks {
			counts[layerOf(st.funcs, cpuLayers)] += st.count
			total += st.count
		}
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = ratio(float64(counts[l]), float64(total))
	}
	return out, total, nil
}

// --- allocation profile ---

// readAllocProfile returns the runtime's allocation profile. It lags by
// up to two GC cycles, hence the two collections first. With
// MemProfileRate=1 it holds every allocation, so the difference of two
// readings needs no scaling.
func readAllocProfile() []runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// flushSampleDistance makes a change of MemProfileRate take hold. Each P
// still holds the distance to its next sample drawn under the old rate
// (512 KB on average); one busy goroutine per P allocates well past it.
func flushSampleDistance() {
	sinks := make([][]byte, runtime.GOMAXPROCS(0)) // one slot each: the stores escape, and do not race
	var wg sync.WaitGroup
	for p := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8<<20/64; i++ {
				sinks[p] = make([]byte, 64)
			}
		}()
	}
	wg.Wait()
}

// allocsByLayer sums the objects ever allocated in a profile by layer:
// all of them, and those in 16-byte blocks (see tinyShare). Symbolising
// allocates, so both profiles of a pair are read before either is folded.
func allocsByLayer(recs []runtime.MemProfileRecord) (all, tiny map[string]uint64) {
	all, tiny = map[string]uint64{}, map[string]uint64{}
	var funcs []string
	for i := range recs {
		funcs = funcs[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			fr, more := frames.Next()
			funcs = append(funcs, fr.Function)
			if !more {
				break
			}
		}
		l := layerOf(funcs, allocLayers)
		all[l] += uint64(recs[i].AllocObjects)
		if recs[i].AllocBytes == 16*recs[i].AllocObjects {
			tiny[l] += uint64(recs[i].AllocObjects)
		}
	}
	return all, tiny
}

// allocLedger attributes one iteration's heap objects to layers from the
// allocation profiles read before and after it at MemProfileRate=1.
// Every allocation of 16 bytes or more is recorded, so those counts are
// exact. Pointer-free objects under 16 bytes are not: the runtime packs
// them into shared 16-byte blocks and records only the allocation that
// opens a block. MemStats counts them all, so the shortfall (mallocs
// minus recorded objects) is known exactly, and it is spread over the
// layers in proportion to the 16-byte blocks each opened.
func allocLedger(before, after []runtime.MemProfileRecord, mallocs uint64) (byLayer map[string]float64, recorded float64) {
	all0, tiny0 := allocsByLayer(before)
	all1, tiny1 := allocsByLayer(after)
	var blocks float64
	for _, l := range allocLayers {
		recorded += float64(all1[l] - all0[l])
		blocks += float64(tiny1[l] - tiny0[l])
	}
	missing := max(float64(mallocs)-recorded, 0)
	out := map[string]float64{}
	for _, l := range allocLayers {
		out[l] = float64(all1[l] - all0[l])
		if blocks > 0 {
			out[l] += missing * float64(tiny1[l]-tiny0[l]) / blocks
		}
	}
	return out, recorded
}

// --- the traced pass ---

// ratio is num/den, 0 when there is nothing to divide by (a workload
// that never touches a pool has no miss ratio).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerInput is the one input the traced pass and the observer section
// run on. It is pinned, not drawn from -seed: inputs differ by up to a
// quarter in what they cost, and the ledgers of two runs must be
// comparable whatever their seeds.
const layerInput = 1

// tracedPass runs the per-layer ledger for one workload, all of it on
// layerInput and output-checked: two plain iterations and a live-heap one
// as the untraced reference the ratios divide by, then iterations with
// spans, the CPU profiler and `metrics=` on, then one iteration with every
// allocation recorded. It never feeds the end-to-end numbers.
func tracedPass(w workload, smoke bool, minIters int, budget time.Duration,
	sl *spanLog, oc *outputCheck) (out map[string]float64, notes []string) {
	out = map[string]float64{}
	check := func(r iterResult) iterResult { return oc.check(layerInput, r, true) }

	// The reference: the faster wall of the two (the first also warms a
	// fresh process up), the second's objects, one live-heap reading.
	first := check(runIter(w, layerInput, iterOpts{smoke: smoke}))
	second := check(runIter(w, layerInput, iterOpts{smoke: smoke}))
	heap := check(runIter(w, layerInput, iterOpts{smoke: smoke, heapLive: true}))
	refWall, refAllocs := min(first.Wall, second.Wall), float64(second.Allocs)
	refHeapKB := float64(heap.HeapLive) / 1024

	sl.workload = w.Name
	prof := &cpuProfiler{}
	counters := map[string]uint64{}
	var walls []float64
	var last iterResult
	iters := 0
	for t0 := time.Now(); iters < minIters || time.Since(t0) < budget; iters++ {
		last = check(runIter(w, layerInput, iterOpts{smoke: smoke, extra: map[string]string{"metrics": ""},
			spans: sl, counters: counters, cpu: prof}))
		walls = append(walls, last.Wall)
	}
	for name, xs := range sl.selfTimes(w.Name) {
		out["span."+name+"_s"] = median(xs)
	}
	shares, samples, err := prof.shares()
	if err != nil {
		oc.failed++
		oc.errors = append(oc.errors, fmt.Sprintf("%s: %v", w.Name, err))
	}
	for _, l := range cpuLayers {
		out["cpu_share."+l] = shares[l]
	}
	notes = append(notes, fmt.Sprintf("%s: %d traced iterations, %d CPU samples (%d Hz asked)", w.Name, iters, samples, cpuHz))

	// Counters are simulated behaviour: every iteration adds the same
	// amounts, so the per-iteration value is exact.
	ctr := func(name string) float64 { return float64(counters[name]) / float64(iters) }
	segs, conns := float64(last.Segs), float64(last.Conns)
	events := ctr("sim_events") + ctr("sim_globals")
	drops := ctr("netem_drop_rand") + ctr("netem_drop_queue") + ctr("netem_drop_down") + ctr("netem_drop_cut")
	out["sim.events"] = events
	out["sim.ns_per_event"] = ratio(refWall*1e9, events)
	out["sim.events_per_seg"] = ratio(events, segs)
	out["sim.globals"] = ctr("sim_globals")
	out["sim.eventpool_miss_ratio"] = ratio(ctr("pool_simevent_news"), ctr("pool_simevent_gets"))
	out["seg.pool_gets"] = ctr("pool_seg_gets")
	out["seg.pool_miss_ratio"] = ratio(ctr("pool_seg_news"), ctr("pool_seg_gets"))
	out["netem.delivered_segs"] = segs
	out["netem.drop_ratio"] = ratio(drops, ctr("pool_packet_gets"))
	out["netem.pktpool_miss_ratio"] = ratio(ctr("pool_packet_news"), ctr("pool_packet_gets"))
	out["tcp.retrans_ratio"] = ratio(ctr("tcp_retrans_segs"), ctr("pool_seg_gets"))
	out["tcp.rto_timeouts"] = ctr("tcp_rto_timeouts")
	out["tcp.chunkpool_miss_ratio"] = ratio(ctr("pool_chunk_news"), ctr("pool_chunk_gets"))
	out["mptcp.sched_picks"] = ctr("mptcp_sched_picks")
	out["mptcp.reinject_bytes"] = ctr("mptcp_reinject_bytes")
	out["mptcp.reassembly_oo_hw"] = float64(counters["mptcp_reassembly_oo_hw"]) // gauge: a maximum, not a sum
	out["core.events_sent"] = ctr("ctl_events_sent")
	out["core.commands"] = ctr("ctl_commands")
	out["core.events_dropped"] = ctr("ctl_events_dropped")
	out["core.queue_hw"] = float64(counters["ctl_queue_hw"])
	out["nlmsg.wirepool_miss_ratio"] = ratio(ctr("pool_wire_news"), ctr("pool_wire_gets"))
	out["segs_per_wall_s"] = ratio(segs, refWall)
	out["allocs_per_seg"] = ratio(refAllocs, segs)
	out["allocs_per_conn"] = ratio(refAllocs, conns)
	out["heap_live_kb_per_conn"] = ratio(refHeapKB, conns)
	out["trace.overhead_ratio"] = ratio(median(walls), refWall)

	// Allocation attribution, last because recording every allocation
	// slows the program several times over.
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	flushSampleDistance()
	beforeRecs := readAllocProfile()
	r := check(runIter(w, layerInput, iterOpts{smoke: smoke}))
	afterRecs := readAllocProfile()
	runtime.MemProfileRate = old
	ledger, recorded := allocLedger(beforeRecs, afterRecs, r.Allocs)
	for l, n := range ledger {
		out["allocs."+l] = n
	}
	notes = append(notes, fmt.Sprintf("%s: the allocation profile recorded %.0f of that iteration's %d mallocs (%.4f); the rest are tiny objects, spread by 16-byte blocks",
		w.Name, recorded, r.Allocs, ratio(recorded, float64(r.Allocs))))
	return out, notes
}

// --- the program's own observers and the sharded core, priced on bulk ---

// observerSection prices what the workloads leave off: the trace and
// metrics recorders, the harness's own probe, and the 2-shard core. All
// of it runs the bulk scenario, whatever workload the run is about,
// because bulk is the pure data path the recorders instrument and the
// one topology sized to split across shards. Every iteration but the
// trace= one is held to bulk's digest: shard count and recorders must not
// change the simulated output.
func observerSection(smoke bool, oc *outputCheck) (out map[string]float64, notes []string) {
	out = map[string]float64{}
	bulk, _ := workloadByName("bulk")
	run := func(opts iterOpts, checked bool) iterResult {
		opts.smoke = smoke
		return oc.check(layerInput, runIter(bulk, layerInput, opts), checked)
	}
	// Three pairs, alternating, with and without the harness's probe.
	var walls, cpus, bareWalls []float64
	for i := 0; i < 3; i++ {
		r := run(iterOpts{}, true)
		walls, cpus = append(walls, r.Wall), append(cpus, r.CPU)
		bareWalls = append(bareWalls, run(iterOpts{bare: true}, true).Wall)
	}
	wall1, cpu1 := median(walls), median(cpus)
	notes = append(notes, fmt.Sprintf("harness overhead: bulk wall_s %.4f with the appended probe, %.4f without (%+.4f s; medians of 3 alternating pairs)",
		wall1, median(bareWalls), wall1-median(bareWalls)))

	// trace= folds its analysis into the result's scalars, so that
	// iteration has its own digest; it is only priced, not compared.
	out["trace.on_wall_ratio"] = ratio(run(iterOpts{extra: map[string]string{"trace": ""}}, false).Wall, wall1)
	out["metrics.on_wall_ratio"] = ratio(run(iterOpts{extra: map[string]string{"metrics": ""}, counters: map[string]uint64{}}, true).Wall, wall1)

	for _, name := range par2Names {
		out[name] = 0
	}
	if runtime.GOMAXPROCS(0) < 2 {
		notes = append(notes, "GOMAXPROCS < 2: the shards=2 step is skipped, sim.par2_* read 0")
		return out, notes
	}
	two := map[string]string{"shards": "2"}
	r2 := run(iterOpts{extra: two}, true)
	out["sim.par2_wall_ratio"] = ratio(r2.Wall, wall1)
	out["sim.par2_cpu_ratio"] = ratio(r2.CPU, cpu1)
	c := map[string]uint64{}
	run(iterOpts{extra: map[string]string{"shards": "2", "metrics": ""}, counters: c}, true)
	out["sim.par2_barriers"] = float64(c["sim_barriers"])
	out["sim.par2_windows_interior"] = float64(c["sim_windows_interior"])
	out["sim.par2_windows_boundary"] = float64(c["sim_windows_boundary"])
	out["sim.par2_windows_idle"] = float64(c["sim_windows_idle"])
	out["sim.par2_cross_sends"] = float64(c["sim_cross_sends"])
	wait, busy := float64(c["sim_barrier_wait_ns"]), float64(c["sim_window_busy_ns"])
	out["sim.par2_barrier_wait_share"] = ratio(wait, wait+busy)
	return out, notes
}

var par2Names = []string{"sim.par2_wall_ratio", "sim.par2_cpu_ratio", "sim.par2_barriers",
	"sim.par2_windows_interior", "sim.par2_windows_boundary", "sim.par2_windows_idle",
	"sim.par2_cross_sends", "sim.par2_barrier_wait_share"}
