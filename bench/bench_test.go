package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/seg"
)

// TestObserverProperty: hanging the harness on a spec must not change
// what the spec computes. For every workload at smoke size the bare run,
// the run with the appended probe, and the fully decorated traced run
// (first/last probes, topology decorator, render wrapper, metrics= with
// its report section cut again) produce the same digest over the encoded
// result and the report text. bulk passing also shows scaleCellOf's
// Workload.(*scenario.FanOut) assertion survives the decoration.
func TestObserverProperty(t *testing.T) {
	for _, w := range workloads {
		bare := runIter(w, 7, iterOpts{smoke: true, bare: true})
		if bare.Err != nil {
			t.Fatalf("%s bare: %v", w.Name, bare.Err)
		}
		probed := runIter(w, 7, iterOpts{smoke: true, heapLive: true})
		sl := newSpanLog(time.Now())
		traced := runIter(w, 7, iterOpts{smoke: true, extra: map[string]string{"metrics": ""},
			spans: sl, counters: map[string]uint64{}})
		for name, r := range map[string]iterResult{"probed": probed, "traced": traced} {
			if r.Err != nil {
				t.Fatalf("%s %s: %v", w.Name, name, r.Err)
			}
			if r.Digest != bare.Digest {
				t.Errorf("%s: %s run digests %s, bare run %s", w.Name, name, r.Digest, bare.Digest)
			}
		}
		if probed.Events == 0 || probed.Segs == 0 || probed.Conns == 0 || probed.Setup <= 0 || probed.HeapLive == 0 {
			t.Errorf("%s: probe collected nothing: %+v", w.Name, probed)
		}
		self := sl.selfTimes("")
		for _, name := range spanNames {
			if len(self[name]) != 1 || self[name][0] <= 0 {
				t.Errorf("%s: span %q not recorded: %v", w.Name, name, self[name])
			}
		}
	}
}

// TestShardInvariantDigest: the shards=2 iteration of the observer
// section is compared with bulk's digest, which only works if the digest
// is blind to the shard count.
func TestShardInvariantDigest(t *testing.T) {
	bulk, _ := workloadByName("bulk")
	one := runIter(bulk, 3, iterOpts{smoke: true})
	two := runIter(bulk, 3, iterOpts{smoke: true, extra: map[string]string{"shards": "2"}})
	if one.Err != nil || two.Err != nil {
		t.Fatal(one.Err, two.Err)
	}
	if one.Digest != two.Digest {
		t.Errorf("shards=1 digests %s, shards=2 %s", one.Digest, two.Digest)
	}
	// And it must see the simulated output: ecmp's hashing depends on
	// the input, so two inputs digest differently.
	ecmp, _ := workloadByName("ecmp")
	if a, b := runIter(ecmp, 3, iterOpts{smoke: true}), runIter(ecmp, 4, iterOpts{smoke: true}); a.Digest == b.Digest {
		t.Errorf("ecmp inputs 3 and 4 share digest %s: the digest misses the simulated output", a.Digest)
	}
}

var spinSink [20]byte

// TestPprofFoldsSpinToItsLayer profiles a loop inside seg.JoinHMAC. The
// innermost frames are crypto/sha1's, so a correct fold walks outward to
// the first repro/internal frame and charges the seg layer.
func TestPprofFoldsSpinToItsLayer(t *testing.T) {
	prof := &cpuProfiler{}
	if err := prof.start(); err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := uint32(0); i < 1000; i++ {
			spinSink = seg.JoinHMAC(1, 2, i, 4)
		}
	}
	prof.stop()
	shares, samples, err := prof.shares()
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples: the host delivers no profiling signals", samples)
	}
	// Under the race detector about half the samples land in its own
	// runtime with no Go frames ("other"); the rest must all be seg's.
	if shares["seg"] < 0.3 {
		t.Errorf("seg got %.2f of %d samples: %v", shares["seg"], samples, shares)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if l != "seg" && l != "other" && l != "runtime_gc" && shares[l] > 0.05 {
			t.Errorf("layer %s got %.2f of a spin inside seg", l, shares[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/mptcp.(*ivalSet64).add", "repro/internal/tcp.(*Subflow).HandleSegment"}, "mptcp"},
		{[]string{"repro/internal/netem.FlowHash", "repro/internal/netem.(*Router).Input"}, "netem"},
		{[]string{"repro/internal/app.(*Sink).onData", "repro/internal/mptcp.(*Connection).deliver"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
		{[]string{"repro/bench.runIter", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.funcs, cpuLayers); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.funcs, got, c.want)
		}
	}
	// The allocation table has no runtime_gc row: such a stack is "other".
	if got := layerOf([]string{"runtime.gcBgMarkWorker"}, allocLayers); got != "other" {
		t.Errorf("GC worker in the allocation table = %s", got)
	}
}

// TestQuartiles pins the helper to Python's statistics.quantiles(n=4),
// the function the benchmark driver computes spreads with.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); got != c.m {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
	}
	if q1, m, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(m) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v", q1, m, q3)
	}
}

func TestBounds(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b float64
		want bool
	}{
		{lower, 1.0, 1.09, true},
		{lower, 1.0, 1.11, false},
		{lower, 1.11, 1.0, false}, // the order of the two sets does not matter
		{lower, 1.25, 1.0, false},
		{higher, 100, 91, true},
		{higher, 100, 89, false},
		{higher, 89, 100, false},
	}
	for _, c := range cases {
		if got := agree(c.a, c.b, c.d); got != c.want {
			t.Errorf("agree(%v, %v, %s) = %v, want %v", c.a, c.b, c.d.Better, got, c.want)
		}
	}
	if w := worsening(2, 3, "lower"); w != 0.5 {
		t.Errorf("worsening = %v, want 0.5", w)
	}
	if w := worsening(100, 150, "higher"); w != -0.5 {
		t.Errorf("worsening of a better reading = %v, want -0.5", w)
	}
	if d := apart(1.25, 1.0, "lower"); d != 0.25 {
		t.Errorf("apart = %v, want 0.25", d)
	}
}

// TestMetricTables holds the tables to the benchmark contract: name and
// unit alphabets, every name used once, bounds at most 0.25, setup_s
// present with the largest bound, at most 128 per-layer metrics, reasons
// of at most 200 characters.
func TestMetricTables(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if n := len(w.Why); n == 0 || n > 200 {
			t.Errorf("workload %s: reason has %d characters", w.Name, n)
		}
	}
	var maxBound float64
	var setup metricDef
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound: %+v", setup)
	}
	if len(perLayer) != 123 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the issue lists 123", len(perLayer))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Moves == "" {
			t.Errorf("%s names no end-to-end metric it should move", d.Name)
		}
	}
}

// TestManifestIsCurrent: BENCHMARK.json is the rendering of the tables.
func TestManifestIsCurrent(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
}

// TestSmokeRunEmitsEveryMetric runs the whole harness at smoke size and
// checks that nothing fails and that the two result lines of every
// workload carry exactly the metrics BENCHMARK.json declares.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	rep := run(options{workloads: workloads, seed: 1, iters: 2, endToEnd: true, perLayer: true, smoke: true}, nil)
	if rep.Failed != 0 {
		t.Errorf("%d of %d failed: %v", rep.Failed, rep.Attempted, rep.Notes)
	}
	for _, w := range workloads {
		for half, defs := range [][]metricDef{endToEnd, perLayer} {
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rep.resultLine(w.Name, half == 1)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, half, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, half, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s trace %d: metric %s missing or malformed: %+v", w.Name, half, d.Name, m)
				}
			}
		}
		for _, d := range endToEnd {
			if rep.EndToEnd[w.Name].Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads 0", w.Name, d.Name)
			}
		}
	}
}
