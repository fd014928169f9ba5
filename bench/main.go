// Command bench is the repository's benchmark: four closed-loop workloads
// through the public scenario.Build → scenario.Execute path, measured end
// to end with tracing off, then priced layer by layer by unit probes and a
// traced pass. BENCHMARK.json at the repository root declares it; README.md
// in this directory explains every number.
//
//	go run ./bench                                  # everything, human-readable
//	go run ./bench -workload bulk -trace 0 -seconds 20 -seed 3
//	go run ./bench -workload bulk -trace 1          # per-layer numbers only
//	go run ./bench -check                           # run-to-run agreement
//
// With one workload and -trace 0 or 1 the last line of standard output is
// the result object the benchmark driver reads. A timed set is always
// measured in a process that measures nothing else: with several
// workloads the command starts itself once per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	iters     int
	// The two halves of a run. -trace 0 selects the end-to-end half alone,
	// -trace 1 the per-layer half alone; without the flag a run does both.
	endToEnd, perLayer bool
	// smoke shrinks the workloads to what the tests run. No flag sets it.
	smoke    bool
	out      string
	traceOut string
}

func main() {
	var (
		wl       = flag.String("workload", "", "comma-separated workloads (default: all four)")
		seed     = flag.Int64("seed", 1, "order in which a run visits the fixed input pool")
		seconds  = flag.Float64("seconds", runSeconds, "size of the timed set: each workload's pinned iteration count fills 20 s on the reference box and scales with this")
		iters    = flag.Int("iters", 0, "timed iterations per workload, overriding -seconds (local use)")
		trace    = flag.String("trace", "", "0 = end-to-end metrics only, 1 = per-layer metrics only (without the flag: both)")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans as JSON to this file")
		check    = flag.Bool("check", false, "run the sets twice, each workload in a fresh process; fail if the two disagree beyond the bounds")
		mf       = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *mf {
		buf, err := manifest()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(buf)
		return
	}
	// Two Ps: the harness goroutine plus one for background GC (and the
	// second shard of the par2 step), the reference box's core count.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(2)
	}

	o := options{seed: *seed, seconds: *seconds, iters: *iters, endToEnd: *trace != "1", perLayer: *trace != "0",
		out: *out, traceOut: *traceOut}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatalf("-trace must be 0 or 1")
	}
	if *wl == "" {
		o.workloads = workloads
	}
	for _, name := range strings.Split(*wl, ",") {
		if name == "" {
			continue
		}
		w, ok := workloadByName(name)
		if !ok {
			fatalf("unknown workload %q", name)
		}
		o.workloads = append(o.workloads, w)
	}

	if *check {
		os.Exit(runCheck(o))
	}
	// A timed set is measured in a process of its own (see freshProcess);
	// with one workload this process is that process.
	var sets map[string]setResult
	if o.endToEnd && len(o.workloads) > 1 {
		sets = map[string]setResult{}
		for _, w := range o.workloads {
			progress("%s: timed set, in a fresh process", w.Name)
			sr, err := freshProcess(w.Name, o)
			if err != nil {
				sr.Attempted, sr.Failed = max(sr.Attempted, 1), max(sr.Failed, 1)
				sr.Errors = append(sr.Errors, fmt.Sprintf("%s: fresh process: %v", w.Name, err))
			}
			sets[w.Name] = sr
		}
	}
	rep := run(o, sets)
	rep.print(os.Stdout)
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			fatalf("%v", err)
		}
	}
	if o.traceOut != "" && rep.spans != nil {
		if err := writeJSON(o.traceOut, rep.spans.Spans); err != nil {
			fatalf("%v", err)
		}
	}
	if len(o.workloads) == 1 && o.endToEnd != o.perLayer {
		fmt.Println(rep.resultLine(o.workloads[0].Name, o.perLayer))
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// summary is one end-to-end metric over a run's timed iterations. Value
// is the headline: the median over the inputs of the median of each
// input's visits, so no input weighs more than another whatever the visit
// order. Every input gets the same, pinned number of visits. Q1, Q3 and N
// describe the raw iterations.
//
// Times are reduced like counts. An input's fastest visit was tried as its
// time and measured against the median on 2400 s of recorded iterations
// (README.md, Run-to-run agreement): on the shared reference box the
// minimum is the noisier of the two, by about a factor of two.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces the iterations of one metric, grouped by input.
func summarize(byInput map[int64][]float64) summary {
	var all, perInput []float64
	for _, xs := range byInput {
		all = append(all, xs...)
		perInput = append(perInput, median(xs))
	}
	if len(all) == 0 { // every iteration failed
		return summary{}
	}
	q1, _, q3 := quartiles(all)
	return summary{Value: median(perInput), Q1: q1, Q3: q3, N: len(all)}
}

// setResult is one workload's timed set.
type setResult struct {
	Metrics   map[string]summary `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// heapLiveInputs are the inputs the live heap is read on. The reading
// costs a forced GC mid-iteration, so it gets its own untimed iterations;
// three inputs give a median.
var heapLiveInputs = []int64{1, 2, 3}

// timedIters is the size of a workload's timed set: the workload's pinned
// visits per input, scaled by -seconds over the 20 s they were sized for,
// times the pool. The count does not depend on how fast the code runs.
// -iters overrides it.
func timedIters(w workload, o options) int {
	if o.iters > 0 {
		return o.iters
	}
	return poolSize * max(1, int(math.Round(float64(w.Visits)*o.seconds/runSeconds)))
}

// runSet measures one workload end to end with tracing off: one warm-up
// iteration, then timedIters iterations that walk the input pool in the
// seed's order again and again, then the untimed live-heap iterations.
// Every iteration, warm-up included, is output-checked; a failed one is
// counted and contributes no sample.
func runSet(w workload, o options, oc *outputCheck) setResult {
	before := *oc
	order := visitOrder(o.seed)
	oc.check(order[0], runIter(w, order[0], iterOpts{smoke: o.smoke}), true)
	samples := map[string]map[int64][]float64{}
	add := func(metric string, input int64, v float64) {
		if samples[metric] == nil {
			samples[metric] = map[int64][]float64{}
		}
		samples[metric][input] = append(samples[metric][input], v)
	}
	for n, iters := 0, timedIters(w, o); n < iters; n++ {
		input := order[n%poolSize]
		r := oc.check(input, runIter(w, input, iterOpts{smoke: o.smoke}), true)
		if r.Err != nil {
			continue
		}
		add("wall_s", input, r.Wall)
		add("cpu_s", input, r.CPU)
		add("setup_s", input, r.Setup)
		add("allocs_per_op", input, float64(r.Allocs))
		add("alloc_mb_per_op", input, float64(r.AllocBytes)/(1<<20))
	}
	for _, input := range heapLiveInputs {
		r := oc.check(input, runIter(w, input, iterOpts{smoke: o.smoke, heapLive: true}), true)
		if r.Err == nil {
			add("heap_live_mb", input, float64(r.HeapLive)/(1<<20))
		}
	}
	sr := setResult{Metrics: map[string]summary{}, Attempted: oc.attempted - before.attempted,
		Failed: oc.failed - before.failed, Errors: oc.errors[len(before.errors):]}
	for _, d := range endToEnd {
		sr.Metrics[d.Name] = summarize(samples[d.Name])
	}
	return sr
}

// report is everything one invocation measured.
type report struct {
	Machine   machineFacts                  `json:"machine"`
	Seed      int64                         `json:"seed"`
	Smoke     bool                          `json:"smoke,omitempty"`
	EndToEnd  map[string]setResult          `json:"end_to_end,omitempty"`
	Probes    map[string]float64            `json:"probes,omitempty"`
	Traced    map[string]map[string]float64 `json:"traced,omitempty"`
	Observers map[string]float64            `json:"observers,omitempty"`
	Notes     []string                      `json:"notes,omitempty"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`

	order []string
	spans *spanLog
}

var processStart = time.Now()

// progress reports to stderr, with the time since the process started.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[bench %5.1fs] "+format+"\n", append([]any{time.Since(processStart).Seconds()}, args...)...)
}

// plan is how much the per-layer half measures. A full run takes the
// sizes the README quotes; alone (-trace 1) the half fits in about
// 1.5 x -seconds — two fifths for the probes, a quarter for the traced
// iterations, the rest for the reference iterations, the allocation
// profile and the observer section; the smoke run of the tests does one
// of each.
type plan struct {
	probeReps      int
	probeTarget    time.Duration
	tracedMinIters int
	tracedBudget   time.Duration
}

func planFor(o options, nprobes int) plan {
	p := plan{probeReps: 5, probeTarget: 50 * time.Millisecond, tracedMinIters: 3, tracedBudget: tracedSeconds * time.Second}
	if !o.endToEnd {
		p.probeReps = 3
		p.probeTarget = time.Duration(o.seconds * 0.4 / float64(nprobes*(p.probeReps+2)) * float64(time.Second))
		p.tracedBudget = time.Duration(o.seconds / 4 * float64(time.Second))
	}
	if o.smoke {
		p.probeReps, p.probeTarget = 1, time.Millisecond
		p.tracedMinIters, p.tracedBudget = 1, 0
	}
	return p
}

// run executes the halves the options select. A workload whose timed set
// was already measured elsewhere (in a fresh process, see main) arrives in
// `sets`; the others are measured here.
func run(o options, sets map[string]setResult) *report {
	start := time.Now()
	rep := &report{Machine: machine(), Seed: o.seed, Smoke: o.smoke}
	probes := unitProbes()
	p := planFor(o, len(probes))

	checks := map[string]*outputCheck{}
	for _, w := range o.workloads {
		rep.order = append(rep.order, w.Name)
		checks[w.Name] = newOutputCheck(w, o.smoke)
	}
	if o.endToEnd {
		rep.EndToEnd = map[string]setResult{}
		for _, w := range o.workloads {
			sr, measured := sets[w.Name]
			if measured {
				rep.Attempted += sr.Attempted
				rep.Failed += sr.Failed
				rep.Notes = append(rep.Notes, sr.Errors...)
			} else {
				progress("%s: timed set", w.Name)
				sr = runSet(w, o, checks[w.Name])
			}
			rep.EndToEnd[w.Name] = sr
		}
	}
	if o.perLayer {
		progress("unit probes (%d, %v x %d each)", len(probes), p.probeTarget.Round(time.Millisecond), p.probeReps)
		rep.Probes = map[string]float64{}
		codecAllocs := 0.0
		for _, up := range probes {
			rep.Attempted++
			r, err := runProbe(up, p.probeTarget, p.probeReps)
			if err != nil {
				rep.Failed++
				rep.Notes = append(rep.Notes, "probe "+err.Error())
			}
			rep.Probes[up.NS] = r.ns
			if up.Allocs != "" {
				rep.Probes[up.Allocs] = r.allocs
			}
			if up.Bytes != "" {
				rep.Probes[up.Bytes] = r.bytes
			}
			if strings.HasPrefix(up.NS, "nlmsg.") {
				codecAllocs += r.allocs
			}
		}
		rep.Probes["nlmsg.codec_allocs"] = codecAllocs

		rep.spans = newSpanLog(start)
		rep.Traced = map[string]map[string]float64{}
		for _, w := range o.workloads {
			progress("%s: traced pass", w.Name)
			m, notes := tracedPass(w, o.smoke, p.tracedMinIters, p.tracedBudget, rep.spans, checks[w.Name])
			rep.Traced[w.Name] = m
			rep.Notes = append(rep.Notes, notes...)
		}
		progress("observer section (bulk: recorders, harness probe, shards=2)")
		if checks["bulk"] == nil {
			bulk, _ := workloadByName("bulk")
			checks["bulk"] = newOutputCheck(bulk, o.smoke)
		}
		m, notes := observerSection(o.smoke, checks["bulk"])
		rep.Observers = m
		rep.Notes = append(rep.Notes, notes...)
	}
	rep.Notes = append(rep.Notes, rep.predictions()...)
	for _, name := range sortedKeys(checks) {
		oc := checks[name]
		rep.Attempted += oc.attempted
		rep.Failed += oc.failed
		rep.Notes = append(rep.Notes, oc.errors...)
	}
	progress("done")
	return rep
}

// perLayerValues gathers every per-layer metric for one workload: the
// probes and the observer section are the same for all, the traced pass
// is the workload's own.
func (r *report) perLayerValues(workload string) map[string]float64 {
	out := map[string]float64{}
	for _, src := range []map[string]float64{r.Probes, r.Traced[workload], r.Observers} {
		for k, v := range src {
			out[k] = v
		}
	}
	return out
}

// predictions states the interaction predictions the issue fixed before
// any measurement, with what this run observed.
func (r *report) predictions() []string {
	var out []string
	ctl := func(w string) (float64, bool) {
		m, ok := r.Traced[w]
		return m["cpu_share.nlmsg"] + m["cpu_share.core"] + m["cpu_share.controller"], ok
	}
	if b, ok := ctl("bulk"); ok {
		out = append(out, fmt.Sprintf("prediction: control-plane CPU share (nlmsg+core+controller) on bulk < 0.02: observed %.4f", b))
	}
	if c, ok := ctl("churn"); ok {
		out = append(out, fmt.Sprintf("prediction: the same share on churn is clearly larger: observed %.4f", c))
	}
	if m, ok := r.Traced["ecmp"]; ok {
		var sum float64
		for _, l := range allocLayers {
			sum += m["allocs."+l]
		}
		if sum > 0 {
			out = append(out, fmt.Sprintf("prediction: allocs.mptcp + allocs.netem >= 0.8 of the objects allocated on ecmp: observed %.4f",
				(m["allocs.mptcp"]+m["allocs.netem"])/sum))
		}
	}
	var parts []string
	for _, w := range r.order {
		if sr, ok := r.EndToEnd[w]; ok && sr.Metrics["wall_s"].Value > 0 {
			parts = append(parts, fmt.Sprintf("%s %.4f", w, sr.Metrics["setup_s"].Value/sr.Metrics["wall_s"].Value))
		}
	}
	if len(parts) > 1 {
		out = append(out, "prediction: setup_s / wall_s is largest on fleet: observed "+strings.Join(parts, ", "))
	}
	return out
}

// print writes the human-readable tables.
func (r *report) print(w io.Writer) {
	m := r.Machine
	fmt.Fprintf(w, "machine: %d CPUs, GOMAXPROCS %d, %s, %s, load %s\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.LoadAvg)
	fmt.Fprintf(w, "seed %d (visit order %v of the %d-input pool); all times are host time\n", r.Seed, visitOrder(r.Seed), poolSize)
	if len(r.EndToEnd) > 0 {
		fmt.Fprintf(w, "\n== end to end (tracing off; value = median over the inputs of the median of each input's visits; q1, q3 over all n iterations) ==\n")
		fmt.Fprintf(w, "%-10s %-16s %-6s %14s %14s %14s %4s %6s\n", "workload", "metric", "unit", "value", "q1", "q3", "n", "bound")
		for _, name := range r.order {
			sr := r.EndToEnd[name]
			for _, d := range endToEnd {
				s := sr.Metrics[d.Name]
				fmt.Fprintf(w, "%-10s %-16s %-6s %14.6g %14.6g %14.6g %4d %6.2f\n", name, d.Name, d.Unit, s.Value, s.Q1, s.Q3, s.N, d.Bound)
			}
			fmt.Fprintf(w, "%-10s %-16s %-6s %14.6g %32s %d/%d iterations failed\n", name, "fail_ratio", "ratio",
				float64(sr.Failed)/float64(max(sr.Attempted, 1)), "", sr.Failed, sr.Attempted)
		}
	}
	if r.Probes != nil || r.Observers != nil {
		fmt.Fprintf(w, "\n== per layer: unit probes and observers (same for every workload) ==\n")
		fmt.Fprintf(w, "%-34s %-6s %14s   %s\n", "metric", "unit", "value", "should move")
		for _, d := range perLayer {
			v, ok := r.Probes[d.Name]
			if !ok {
				v, ok = r.Observers[d.Name]
			}
			if ok {
				fmt.Fprintf(w, "%-34s %-6s %14.6g   %s\n", d.Name, d.Unit, v, d.Moves)
			}
		}
	}
	if len(r.Traced) > 0 {
		fmt.Fprintf(w, "\n== per layer: traced pass ==\n")
		fmt.Fprintf(w, "%-28s %-6s", "metric", "unit")
		for _, name := range r.order {
			fmt.Fprintf(w, " %14s", name)
		}
		fmt.Fprintln(w)
		for _, d := range perLayer {
			if _, ok := r.Traced[r.order[0]][d.Name]; !ok {
				continue
			}
			fmt.Fprintf(w, "%-28s %-6s", d.Name, d.Unit)
			for _, name := range r.order {
				fmt.Fprintf(w, " %14.6g", r.Traced[name][d.Name])
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Notes) > 0 {
		fmt.Fprintf(w, "\n== notes ==\n")
		for _, n := range r.Notes {
			fmt.Fprintln(w, n)
		}
	}
	fmt.Fprintf(w, "\n%d iterations and probes attempted, %d failed\n", r.Attempted, r.Failed)
}

// resultLine is the object the benchmark driver reads: the end-to-end
// metrics with tracing off, the per-layer ones with it on.
func (r *report) resultLine(workload string, perLayerHalf bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	if !perLayerHalf {
		for _, d := range endToEnd {
			metrics[d.Name] = val{r.EndToEnd[workload].Metrics[d.Name].Value, d.Unit}
		}
	} else {
		vals := r.perLayerValues(workload)
		for _, d := range perLayer {
			if v, ok := vals[d.Name]; ok {
				metrics[d.Name] = val{v, d.Unit}
			}
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	return string(buf)
}

// machineFacts are recorded with every report: host numbers mean nothing
// without the host.
type machineFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"load_average_at_start"`
}

func machine() machineFacts {
	m := machineFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", LoadAvg: "unknown"}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) >= 3 {
			m.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return m
}

// sortedKeys is the deterministic iteration order for maps in output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
