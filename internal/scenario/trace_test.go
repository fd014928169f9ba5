package scenario

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/trace"
)

// traceTestSpec is a tiny two-path bulk spec for exercising the trace
// wiring without the experiments package.
func traceTestSpec(runs int) *Spec {
	sp := &Spec{Name: "trace-test"}
	for i := 0; i < runs; i++ {
		p := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
		wl := &Bulk{Bytes: 64 << 10, CloseWhenDone: true}
		sp.Runs = append(sp.Runs, &RunSpec{
			Label:    []string{"alpha", "beta/gamma"}[i%2],
			Topology: TwoPath{P0: p, P1: p},
			Workload: wl,
			Settle:   time.Millisecond,
			Stop:     Stop{Horizon: 5 * time.Second, Poll: 50 * time.Millisecond, Until: wl.Done},
		})
	}
	return sp
}

func TestEnableTraceSingleRunWritesFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "run.trace")
	sp := traceTestSpec(1)
	EnableTrace(sp, file, 1<<10)
	res := Execute(sp, 1)

	d, err := trace.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) == 0 || len(d.Entities) == 0 {
		t.Fatal("trace file is empty")
	}
	if res.Scalars["trace_records"] != float64(len(d.Records)) {
		t.Fatalf("trace_records scalar %v does not match file records %d",
			res.Scalars["trace_records"], len(d.Records))
	}
	if _, ok := res.Samples["trace_rtt_ms"]; !ok {
		t.Fatal("trace probe did not pool the RTT sample")
	}
}

func TestEnableTraceMultiRunSuffixesFiles(t *testing.T) {
	base := filepath.Join(t.TempDir(), "multi.trace")
	sp := traceTestSpec(2)
	EnableTrace(sp, base, 1<<10)
	res := Execute(sp, 1)

	for _, suffix := range []string{".alpha", ".beta-gamma"} {
		if _, err := trace.ReadFile(base + suffix); err != nil {
			t.Fatalf("per-run trace file missing: %v", err)
		}
	}
	// Scalars are label-prefixed so the runs do not clobber each other.
	if _, ok := res.Scalars["alpha_trace_records"]; !ok {
		t.Fatalf("missing label-prefixed scalar; have %v", res.Scalars)
	}
	if _, ok := res.Scalars["beta-gamma_trace_records"]; !ok {
		t.Fatalf("missing sanitized label-prefixed scalar; have %v", res.Scalars)
	}
}

func TestUntracedRunHasNoTracer(t *testing.T) {
	sp := traceTestSpec(1)
	var seen *Run
	sp.Runs[0].Probes = append(sp.Runs[0].Probes, Probe{
		Name:    "grab",
		Collect: func(rt *Run) { seen = rt },
	})
	Execute(sp, 1)
	if seen == nil {
		t.Fatal("probe never ran")
	}
	if seen.Tracer != nil {
		t.Fatal("untraced run built a tracer")
	}
	if seen.Tracer.Shard("anything") != nil {
		t.Fatal("an untraced run's shards must be nil")
	}
}

// TestSweepTracePerCell pins the clobbering guards: a traced sweep
// suffixes the named file per cell, a one-cell plan keeps the name, a
// caller that places files is asked per cell, and a traced multi-seed
// sweep is rejected up front (concurrent seeds would race on one file).
func TestSweepTracePerCell(t *testing.T) {
	Scenarios.Register("trace-sweep-test", "test scenario", func(p *Params) (*Spec, error) {
		p.Str("knob", "a", "") // consume the axis key
		return traceTestSpec(1), nil
	})
	dir := t.TempDir()
	base := filepath.Join(dir, "sweep.trace")
	m := &Manifest{
		Scenario: "trace-sweep-test",
		Params:   ParamValues{"trace": base},
		Sweep:    &ManifestSweep{Vary: []ManifestAxis{{Key: "knob", Values: []string{"a", "b"}}}},
	}
	cells, _ := runPlan(t, m)
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	for _, suffix := range []string{".knob-a", ".knob-b"} {
		if _, err := trace.ReadFile(base + suffix); err != nil {
			t.Fatalf("per-cell trace file missing: %v", err)
		}
	}

	m.Sweep.Vary[0].Values = []string{"a"}
	if cells, _ = runPlan(t, m); cells[0].Params.Clone().Str("trace", "", "") != base {
		t.Fatalf("a one-cell plan must keep the named file, got %v", cells[0].Params.Map())
	}

	var asked []string
	cells, err := m.Plan(func(cellID, key, named string) string {
		asked = append(asked, cellID+" "+key+" "+named)
		return filepath.Join(dir, cellID+"."+key)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "knob-a trace " + base; len(asked) != 1 || asked[0] != want {
		t.Fatalf("place was asked %q, want one call %q", asked, want)
	}
	if got, want := cells[0].Params.Clone().Str("trace", "", ""), filepath.Join(dir, "knob-a.trace"); got != want {
		t.Fatalf("placed trace = %q, want %q", got, want)
	}

	m.Seeds = 4
	if _, err := m.Plan(nil); err == nil {
		t.Fatal("traced multi-seed sweep must be rejected")
	}
}

func TestParamsHas(t *testing.T) {
	p := NewParams(map[string]string{"trace": ""})
	if !p.Has("trace") {
		t.Fatal("Has must see the bare key")
	}
	if p.Has("other") {
		t.Fatal("Has invented a key")
	}
	if unused := p.Unused(); len(unused) != 0 {
		t.Fatalf("Has must mark the key consumed; unused = %v", unused)
	}
}
