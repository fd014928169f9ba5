package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
)

func init() {
	Scenarios.Register("test-manifest-bulk", "test-only manifest scenario", func(p *Params) (*Spec, error) {
		b := p.Int("bytes", 64<<10, "")
		rate := p.Float("rate", 50e6, "")
		sched := p.Str("sched", "", "")
		p.Str("policy", "", "")
		p.Bool("smoke", false, "")
		wl := &Bulk{Bytes: b}
		return &Spec{
			Name: "test-manifest-bulk",
			Runs: []*RunSpec{{
				Label:    "bulk",
				Topology: Direct{Link: netem.LinkConfig{RateBps: rate, Delay: 2 * time.Millisecond}},
				Workload: wl,
				Sched:    sched,
				Settle:   time.Millisecond,
				Probes:   []Probe{Scalar("bytes", func(*Run) float64 { return float64(b) })},
				Stop:     Stop{Horizon: 10 * time.Second, Poll: 10 * time.Millisecond, Until: wl.Done},
			}},
		}, nil
	})
}

// The documents of the parse tests, shared with FuzzManifestLoad's seeds.
const (
	valueFormsDoc = `{
		"scenario": "test-manifest-bulk",
		"params": {"rate": 0.30, "bytes": 1024, "smoke": true, "sched": "lowest-rtt"}
	}`
	traceSweepDoc = `{
		"scenario": "test-manifest-bulk",
		"params": {"trace": "/tmp/x.trace"},
		"sweep": {
			"vary": [
				{"key": "sched", "values": ["lowest-rtt", "round-robin"]},
				{"key": "bytes", "values": [1024, 2048]},
				{"key": "rate", "values": ["25e6"]}
			]
		}
	}`
)

var manifestRejects = []struct {
	name, doc, wantErr string
}{
	{"unknown top-level field", `{"scenario": "x", "shard": 4}`, "shard"},
	{"trace outside params", `{"scenario": "x", "trace": true}`, "trace"},
	{"unknown sweep field", `{"scenario": "x", "sweep": {"contollers": ["a"]}}`, "contollers"},
	{"trailing data", `{"scenario": "x"} {"scenario": "y"}`, "trailing"},
	{"array param value", `{"scenario": "x", "params": {"bytes": [1, 2]}}`, "string, number, or boolean"},
	{"object axis value", `{"scenario": "x", "sweep": {"vary": [{"key": "k", "values": [{}]}]}}`, "string, number, or boolean"},
	{"not json", `scenario: x`, "manifest"},
	{"scheduler axis outside vary", `{"scenario": "x", "sweep": {"schedulers": ["lowest-rtt"]}}`, "schedulers"},
}

// FuzzManifestLoad hammers the manifest decoder — JSON from outside the
// program: it must never panic, and whatever it accepts must snapshot to
// a document that parses back to the same snapshot, so the manifest.json
// a workspace stores reloads as exactly the run it records.
func FuzzManifestLoad(f *testing.F) {
	f.Add([]byte(valueFormsDoc))
	f.Add([]byte(traceSweepDoc))
	f.Add([]byte(`{"name": "n", "scenario": "s", "seed": 3, "seeds": 4, "params": {"shards": 2, "trace": "", "trace_cap": 9, "metrics": "m.json"}}`))
	f.Add([]byte(`{"scenario": "s", "sweep": {"vary": [{"key": "k"}, {"key": "l", "values": []}]}}`)) // found by the fuzzer: null vs []
	for _, tc := range manifestRejects {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := ParseManifest(doc)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("accepted manifest does not snapshot: %v", err)
		}
		m2, err := ParseManifest(snap)
		if err != nil {
			t.Fatalf("snapshot rejected: %v\n%s", err, snap)
		}
		snap2, err := m2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("snapshot is not a fixed point:\n%s\nvs\n%s", snap, snap2)
		}
	})
}

// Parameter values written as JSON numbers and booleans reach the typed
// Params as strings with the literal spelling preserved — the exact
// bytes `-set` would carry.
func TestParseManifestValueForms(t *testing.T) {
	m, err := ParseManifest([]byte(valueFormsDoc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"rate": "0.30", "bytes": "1024", "smoke": "true", "sched": "lowest-rtt",
	}
	for k, v := range want {
		if m.Params[k] != v {
			t.Errorf("params[%q] = %q, want %q", k, m.Params[k], v)
		}
	}
}

// A trace file is an ordinary parameter; sweep axes keep file order.
func TestParseManifestTraceAndSweep(t *testing.T) {
	m, err := ParseManifest([]byte(traceSweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Params["trace"]; !ok || got != "/tmp/x.trace" {
		t.Fatalf("trace parameter = %q (set %v), want /tmp/x.trace", got, ok)
	}
	if len(m.Sweep.Vary) != 3 || m.Sweep.Vary[0].Key != "sched" || m.Sweep.Vary[1].Key != "bytes" || m.Sweep.Vary[2].Key != "rate" {
		t.Fatalf("vary axes out of order: %+v", m.Sweep.Vary)
	}
	if got := m.Sweep.Vary[1].Values; got[0] != "1024" || got[1] != "2048" {
		t.Fatalf("numeric axis values = %v", got)
	}
}

func TestParseManifestRejects(t *testing.T) {
	for _, tc := range manifestRejects {
		if _, err := ParseManifest([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadManifestNameDefault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "my-exp.json")
	if err := os.WriteFile(path, []byte(`{"scenario": "test-manifest-bulk"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "my-exp" || m.RunName() != "my-exp" {
		t.Fatalf("Name = %q, want my-exp", m.Name)
	}
}

// The rejection table: every way a manifest can ask for something the
// registry (or the trace/shard rules) forbids, each dying in Plan with
// the same error class the CLI raises.
func TestManifestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		m       *Manifest
		wantErr string
	}{
		{"missing scenario", &Manifest{}, "missing required field"},
		{"unknown scenario", &Manifest{Scenario: "nosuch"}, "unknown scenario"},
		{"bad shards value", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"shards": "four"}}, "shards"},
		{"bad trace_cap value", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"trace": "", "trace_cap": "nine"}}, "trace_cap"},
		{"negative seed", &Manifest{Scenario: "test-manifest-bulk", Seed: -1}, "non-negative"},
		{"negative seeds", &Manifest{Scenario: "test-manifest-bulk", Seeds: -2}, "non-negative"},
		{"trace with multiple seeds", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"trace": ""}, Seeds: 4}, "trace with 4 seeds"},
		{"metrics with multiple seeds", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"metrics": ""}, Seeds: 2}, "metrics with 2 seeds"},
		{"trace axis with multiple seeds", &Manifest{Scenario: "test-manifest-bulk", Seeds: 2,
			Sweep: &ManifestSweep{Vary: []ManifestAxis{{Key: "trace", Values: []string{"a", "b"}}}}}, "trace with 2 seeds"},
		{"trace with shards", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"trace": "", "shards": "4"}}, "single-shard"},
		{"unknown param key", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"bites": "1"}}, "bites"},
		{"bad param value", &Manifest{Scenario: "test-manifest-bulk",
			Params: map[string]string{"bytes": "many"}}, "bytes"},
		{"malformed sweep axis", &Manifest{Scenario: "test-manifest-bulk",
			Sweep: &ManifestSweep{Vary: []ManifestAxis{{Key: "bytes"}}}}, "no values"},
		{"bad value in one sweep cell", &Manifest{Scenario: "test-manifest-bulk",
			Sweep: &ManifestSweep{Vary: []ManifestAxis{{Key: "bytes", Values: []string{"1024", "nope"}}}}}, "bytes"},
	}
	for _, tc := range cases {
		if _, err := tc.m.Plan(nil); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestManifestValidateOK(t *testing.T) {
	m := &Manifest{
		Scenario: "test-manifest-bulk",
		Params:   map[string]string{"bytes": "1024", "rate": "25e6", "shards": "2"},
		Seeds:    3,
	}
	if _, err := m.Plan(nil); err != nil {
		t.Fatal(err)
	}
	sweep := &Manifest{
		Scenario: "test-manifest-bulk",
		Sweep: &ManifestSweep{Vary: []ManifestAxis{
			{Key: "sched", Values: []string{"lowest-rtt", "round-robin"}},
			{Key: "bytes", Values: []string{"1024", "2048"}},
		}},
	}
	if _, err := sweep.Plan(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellID(t *testing.T) {
	if got := CellID(nil); got != "defaults" {
		t.Fatalf("CellID(nil) = %q", got)
	}
	got := CellID([]string{"policy=fullmesh", "loss=0.3"})
	if strings.ContainsAny(got, " /") || got == "" {
		t.Fatalf("CellID not filesystem-safe: %q", got)
	}
	if got != CellID([]string{"policy=fullmesh", "loss=0.3"}) {
		t.Fatal("CellID not deterministic")
	}
}

// Cell ids enumerate the vary axes, first axis slowest
// — the directory names a workspace sweep run will create.
func TestManifestCellIDs(t *testing.T) {
	m := &Manifest{
		Scenario: "test-manifest-bulk",
		Sweep: &ManifestSweep{Vary: []ManifestAxis{
			{Key: "policy", Values: []string{"fullmesh", "stream"}},
			{Key: "bytes", Values: []string{"1", "2"}},
		}},
	}
	cells, err := m.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		CellID([]string{"policy=fullmesh", "bytes=1"}),
		CellID([]string{"policy=fullmesh", "bytes=2"}),
		CellID([]string{"policy=stream", "bytes=1"}),
		CellID([]string{"policy=stream", "bytes=2"}),
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i := range want {
		if cells[i].ID != want[i] {
			t.Errorf("cell %d = %q, want %q", i, cells[i].ID, want[i])
		}
	}
	cells, err = (&Manifest{Scenario: "test-manifest-bulk"}).Plan(nil)
	if err != nil || len(cells) != 1 || cells[0].ID != "defaults" || cells[0].Label != "(defaults)" {
		t.Fatalf("a manifest without a sweep is the one defaults cell, got %+v, %v", cells, err)
	}
}

// Snapshots resolve defaults and render deterministically, so two runs
// of the same manifest store byte-identical manifest.json files.
func TestManifestSnapshot(t *testing.T) {
	m := &Manifest{Scenario: "test-manifest-bulk", Params: map[string]string{"bytes": "1024"}}
	a, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot not deterministic")
	}
	s := string(a)
	for _, want := range []string{`"seed": 1`, `"seeds": 1`, `"name": "test-manifest-bulk"`} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing resolved default %q:\n%s", want, s)
		}
	}
}

// The plan's cell carries every parameter as the manifest spells it, and
// places the trace file — with the caller's place — only on a manifest
// that asks for one.
func TestManifestBuildAndTraceParams(t *testing.T) {
	m := &Manifest{
		Scenario: "test-manifest-bulk",
		Params:   map[string]string{"bytes": "1024", "shards": "4", "trace_cap": "99"},
	}
	place := func(_, key, _ string) string { return "/tmp/" + key }
	params := func() *Params {
		t.Helper()
		cells, err := m.Plan(place)
		if err != nil {
			t.Fatal(err)
		}
		return cells[0].Params
	}
	p := params()
	if p.Has("trace") || p.Has("metrics") {
		t.Fatal("the plan armed tracing or metrics on a manifest that enables neither")
	}
	if got := p.Clone().Int("shards", 0, ""); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	m.Params["trace"] = ""
	delete(m.Params, "shards") // tracing is single-shard
	p = params()
	if got := p.Clone().Str("trace", "", ""); got != "/tmp/trace" {
		t.Fatalf("trace = %q", got)
	}
	if got := p.Clone().Int("trace_cap", 0, ""); got != 99 {
		t.Fatalf("trace_cap = %d", got)
	}
	if p.Has("metrics") {
		t.Fatal("the plan armed metrics on an unmetered manifest")
	}
}
