package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/workspace"
)

const manifests = "../../examples/manifests/"

// mpexp runs one command line in-process and returns what it printed and
// its exit status.
func mpexp(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// mustRun is mpexp for command lines that have to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, errb, status := mpexp(t, args...)
	if status != 0 {
		t.Fatalf("mpexp %s: exit %d\n%s", strings.Join(args, " "), status, errb)
	}
	return out
}

func readFile(t *testing.T, elem ...string) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(elem...))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// Flags, a manifest file and a workspace capture are three spellings of
// one Manifest through one executor: the same run must print the same
// bytes whichever way it is asked for, and store the same result.json.
func TestRunSpellingsAgree(t *testing.T) {
	ws, err := workspace.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	byFlags := mustRun(t, "run", "fig2a", "-set", "smoke", "-ws", "none")
	if !strings.Contains(byFlags, "Fig. 2a") {
		t.Fatalf("no fig2a report on stdout:\n%s", byFlags)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"manifest file", []string{"run", manifests + "fig2a-smoke.json", "-ws", "none"}},
		{"flags, captured", []string{"run", "fig2a", "-set", "smoke", "-set", "trace", "-ws", ws.Root}},
		{"manifest file, captured", []string{"run", manifests + "fig2a-smoke.json", "-ws", ws.Root}},
		{"two shards", []string{"run", "fig2a", "-set", "smoke", "-set", "shards=2", "-ws", "none"}},
		{"-set spelling of a bare trace", []string{"run", "fig2a", "-set", "smoke", "-set", "trace", "-ws", "none"}},
	} {
		if got := mustRun(t, tc.args...); got != byFlags {
			t.Errorf("%s: report differs from `run fig2a -set smoke`:\n%s\nvs\n%s", tc.name, got, byFlags)
		}
	}
	for _, id := range []string{"fig2a-001", "fig2a-smoke-001"} {
		if got := readFile(t, ws.RunDir(id), workspace.ReportFile); got != byFlags {
			t.Errorf("%s: stored report.txt differs from stdout", id)
		}
	}
	if a, b := readFile(t, ws.RunDir("fig2a-001"), workspace.ResultFile),
		readFile(t, ws.RunDir("fig2a-smoke-001"), workspace.ResultFile); a != b {
		t.Errorf("result.json differs between the flag-driven and the manifest-driven capture")
	}
	// Both captures asked for a trace without naming a file: it belongs in
	// the run directory.
	for _, id := range []string{"fig2a-001", "fig2a-smoke-001"} {
		if _, err := os.Stat(filepath.Join(ws.RunDir(id), workspace.TraceFile)); err != nil {
			t.Errorf("%s: captured run stored no trace: %v", id, err)
		}
	}
}

// The listing is derived from the factories' own getter calls; this pins
// what the derivation owes its readers. Every scenario lists keys of its
// own, in the order its factory reads them and the same on every call;
// every key has a type and a doc; and the listed default is a value Build
// accepts for that key.
func TestListingContract(t *testing.T) {
	type param struct{ Key, Type, Default, Doc string }
	var listing struct {
		Scenarios []struct {
			Name   string
			Params []param
		}
		CommonParams []param `json:"common_params"`
		Controllers  []struct{ Name, Desc string }
	}
	out := mustRun(t, "list", "-json")
	if again := mustRun(t, "list", "-json"); again != out {
		t.Fatal("two `list -json` calls differ")
	}
	if err := json.Unmarshal([]byte(out), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Scenarios) != len(scenario.Scenarios.Names()) || len(listing.CommonParams) == 0 {
		t.Fatalf("listing has %d scenarios and %d common keys", len(listing.Scenarios), len(listing.CommonParams))
	}
	text := mustRun(t, "list")
	// Both listings print the policies a run accepts, and only those: a
	// manifest checked against the JSON dump names no value the binary
	// refuses and misses none it takes, controller or in-kernel manager.
	accepted := append(smapp.Controllers.Names(), smapp.KernelPMs.Names()...)
	if _, err := scenario.Build("stream", scenario.NewParams(map[string]string{"policy": "no-such"})); err == nil {
		t.Error("Build accepted an unlisted policy")
	}
	for _, in := range listing.Controllers {
		if i := slices.Index(accepted, in.Name); i < 0 {
			t.Errorf("`list -json` prints policy %q, which nothing registers", in.Name)
		} else {
			accepted = slices.Delete(accepted, i, i+1)
		}
		if in.Desc == "" || !strings.Contains(text, "  "+in.Name+" ") || !strings.Contains(text, in.Desc) {
			t.Errorf("policy %q: no description, or `list` does not print it", in.Name)
		}
		if _, err := scenario.Build("stream", scenario.NewParams(map[string]string{"policy": in.Name})); err != nil {
			t.Errorf("listed policy %q rejected: %v", in.Name, err)
		}
	}
	if len(accepted) != 0 {
		t.Errorf("`list -json` omits accepted policies %v", accepted)
	}
	for _, sc := range listing.Scenarios {
		var keys []string
		for _, d := range sc.Params {
			keys = append(keys, d.Key)
			if !strings.Contains(text, "-set "+d.Key+" ") {
				t.Errorf("%s: `list` does not print %s", sc.Name, d.Key)
			}
		}
		if len(keys) <= len([]string{"sched", "policy"}) {
			t.Errorf("%s lists no key of its own: %v", sc.Name, keys)
		}
		if got := strings.Join(keys, " "); sc.Name == "scale" && got != "conns subflows servers kb sched policy wall" {
			t.Errorf("scale lists %q, not its factory's read order", got)
		}
		for _, d := range append(sc.Params, listing.CommonParams...) {
			if d.Key == "" || d.Type == "" || d.Doc == "" {
				t.Errorf("%s: incomplete entry %+v", sc.Name, d)
			}
			if _, err := scenario.Build(sc.Name, scenario.NewParams(map[string]string{d.Key: d.Default})); err != nil {
				t.Errorf("%s: listed default %s=%q rejected: %v", sc.Name, d.Key, d.Default, err)
			}
		}
	}
}

func TestSweepByFlagsMatchesManifest(t *testing.T) {
	byFlags := mustRun(t, "sweep", "fig2b", "-set", "smoke",
		"-vary", "policy=fullmesh,stream", "-vary", "loss=0.1,0.3", "-ws", "none")
	byFile := mustRun(t, "sweep", manifests+"fig2b-loss-sweep.json", "-ws", "none")
	if byFlags != byFile {
		t.Fatalf("sweep by flags differs from sweep by manifest:\n%s\nvs\n%s", byFlags, byFile)
	}
	if !strings.Contains(byFlags, "4 cells") {
		t.Fatalf("sweep did not cross 2 controllers x 2 losses:\n%s", byFlags)
	}
	// A -vary axis replaces the file's axis of the same key, in place.
	narrowed := mustRun(t, "sweep", manifests+"fig2b-loss-sweep.json", "-vary", "loss=0.2", "-ws", "none")
	if !strings.Contains(narrowed, "2 cells") || !strings.Contains(narrowed, "policy=stream loss=0.2") {
		t.Fatalf("-vary did not replace the manifest's axis:\n%s", narrowed)
	}
}

func TestRejections(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		status  int
		wantErr string // must appear on stderr exactly once
	}{
		{"figure subcommands are gone", []string{"fig2a"}, 2, "usage: mpexp"},
		{"no arguments", nil, 2, "usage: mpexp"},
		{"run without a scenario", []string{"run", "-set", "smoke"}, 2, "usage: mpexp"},
		{"trace across seeds", []string{"run", "fig2a", "-set", "smoke", "-set", "trace=t", "-seeds", "2", "-ws", "none"},
			2, "trace with 2 seeds"},
		{"unknown scenario", []string{"run", "nosuch", "-ws", "none"}, 2, "unknown scenario"},
		{"unknown parameter", []string{"run", "fig2a", "-set", "nosuch=1", "-ws", "none"}, 2, "unknown parameter"},
		{"unknown scheduler", []string{"run", "fig2a", "-set", "sched=bogus", "-ws", "none"}, 2, "unknown scheduler"},
		{"a scheduler flag is no spelling", []string{"run", "fig2a", "-sched", "round-robin", "-ws", "none"}, 2, "flag provided but not defined: -sched"},
		{"bad shards value", []string{"run", "fig2a", "-set", "shards=two", "-ws", "none"}, 2, "shards"},
		{"unknown flag", []string{"run", "fig2a", "-nosuch"}, 2, "flag provided but not defined"},
		{"malformed axis", []string{"sweep", "fig2a", "-vary", "loss", "-ws", "none"}, 2, "malformed -vary"},
	} {
		out, errb, status := mpexp(t, tc.args...)
		if status != tc.status {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, status, tc.status, errb)
		}
		if n := strings.Count(errb, tc.wantErr); n != 1 {
			t.Errorf("%s: %q appears %d times on stderr, want once:\n%s", tc.name, tc.wantErr, n, errb)
		}
		if out != "" {
			t.Errorf("%s: a rejected command wrote to stdout:\n%s", tc.name, out)
		}
	}
}

// The two mode rules and the one-directory-per-cell rule are each stated
// once, below every way of asking: a -set pair, a manifest (its
// params, its seeds and its sweep block) and a sweep axis must be refused
// with the same words and the same exit status.
func TestModeRulesReachEveryRoute(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "fig2a.json") // the name the command-line routes run under
	tr := filepath.Join(dir, "t")
	for _, rule := range []struct {
		wantErr string
		params  string              // the manifest route: its params,
		fields  string              // and its other fields
		routes  map[string][]string // the command-line routes
	}{
		{"trace with 2 seeds would write one trace from every seed", `, "trace": "t"`, `, "seeds": 2`,
			map[string][]string{
				"-set": {"fig2a", "-set", "smoke", "-seeds", "2", "-set", "trace=" + tr},
				"axis": {"fig2a", "-set", "smoke", "-seeds", "2", "-vary", "trace=" + tr + "1," + tr + "2"},
			}},
		{"tracing is single-shard only (got shards=2)", `, "trace": "", "shards": 2`, "",
			map[string][]string{
				"-set": {"fig2a", "-set", "smoke", "-set", "trace", "-set", "shards=2"},
				"axis": {"fig2a", "-set", "smoke", "-set", "trace=" + tr, "-vary", "shards=1,2"},
			}},
		{`cells "policy=backup" and "policy=backup" both resolve to cell id "policy-backup"`,
			"", `, "sweep": {"vary": [{"key": "policy", "values": ["backup", "backup"]}]}`,
			map[string][]string{
				"axis": {"fig2a", "-set", "smoke", "-vary", "policy=backup,backup"},
			}},
	} {
		doc := `{"scenario": "fig2a", "params": {"smoke": true` + rule.params + `}` + rule.fields + `}`
		if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		rule.routes["field"] = []string{file}
		var first string
		for route, args := range rule.routes {
			out, errb, status := mpexp(t, append(append([]string{"sweep"}, args...), "-ws", "none")...)
			if status != 2 || out != "" || strings.Count(errb, rule.wantErr) != 1 {
				t.Errorf("%s by %s: exit %d, stdout %q, stderr %q", rule.wantErr, route, status, out, errb)
			}
			if first == "" {
				first = errb
			}
			if errb != first {
				t.Errorf("%s by %s: refused with %q, another route with %q", rule.wantErr, route, errb, first)
			}
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("a refused command wrote files: %v", entries)
	}
	// Shards stay a legitimate axis.
	if out := mustRun(t, "sweep", "fig2a", "-set", "smoke", "-vary", "shards=1,2,4", "-ws", "none"); !strings.Contains(out, "3 cells") {
		t.Errorf("-vary shards=1,2,4 did not run three cells:\n%s", out)
	}
}

// A metered run takes several seeds by every route that asks for one — a
// -set pair, a sweep axis and a manifest's params — and each seed writes
// its own part of the metrics file, whose pool counters are those of the
// same seed metered alone.
func TestMetricsAcrossSeeds(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	segGets := func(file string) uint64 {
		snap, err := metrics.Decode([]byte(readFile(t, file)))
		if err != nil {
			t.Fatal(err)
		}
		return snap.Get("pool_seg_gets").Value
	}
	alone := map[int]uint64{}
	for seed := 1; seed <= 2; seed++ {
		f := at(fmt.Sprintf("alone%d.json", seed))
		mustRun(t, "run", "fig2a", "-set", "smoke", "-seed", fmt.Sprint(seed), "-set", "metrics="+f, "-ws", "none")
		alone[seed] = segGets(f)
	}
	manifest := at("metered.json")
	doc := `{"scenario": "fig2a", "seeds": 2, "params": {"smoke": true, "metrics": "` + at("m.json") + `"}}`
	if err := os.WriteFile(manifest, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for route, tc := range map[string]struct {
		args  []string
		files []string // each seed's metrics file, seed 1 then seed 2 of every cell
	}{
		"-set":  {[]string{"run", "fig2a", "-set", "smoke", "-seeds", "2", "-set", "metrics=" + at("s.json")}, []string{"s.json"}},
		"axis":  {[]string{"sweep", "fig2a", "-set", "smoke", "-seeds", "2", "-vary", "metrics=" + at("a1.json") + "," + at("a2.json")}, []string{"a1.json", "a2.json"}},
		"field": {[]string{"run", manifest}, []string{"m.json"}},
	} {
		mustRun(t, append(tc.args, "-parallel", "2", "-ws", "none")...)
		for _, f := range tc.files {
			for seed := 1; seed <= 2; seed++ {
				part := at(fmt.Sprintf("%s.seed%d", f, seed))
				if got := segGets(part); got != alone[seed] || got == 0 {
					t.Errorf("%s: %s reports pool_seg_gets %d, seed %d alone %d", route, filepath.Base(part), got, seed, alone[seed])
				}
			}
		}
	}
}

// Every key `list -json` names as common is an ordinary parameter: a
// manifest sets each of them in its params, plans and runs, and stores the
// result.json, metrics.json and trace the same run spelled with flags and
// -set stores. The metrics are compared without their wall-clock-tagged
// entries (pool misses depend on what earlier runs left in the pools).
func TestCommonParamsInManifest(t *testing.T) {
	var listing struct {
		CommonParams []struct{ Key string } `json:"common_params"`
	}
	if err := json.Unmarshal([]byte(mustRun(t, "list", "-json")), &listing); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ws, err := workspace.Init(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The manifest's value of each key, and the -set pair that spells it
	// on the command line. Files are named relative to dir.
	spell := map[string]struct {
		value string
		flags []string
	}{
		"smoke":     {"true", []string{"-set", "smoke"}},
		"trace":     {`"m.trace"`, []string{"-set", "trace=f.trace"}},
		"trace_cap": {"4096", []string{"-set", "trace_cap=4096"}},
		"metrics":   {`"m.metrics.json"`, []string{"-set", "metrics=f.metrics.json"}},
		"shards":    {"1", []string{"-set", "shards=1"}},
	}
	var params []string
	args := []string{"run", "fig2a", "-ws", ws.Root}
	for _, p := range listing.CommonParams {
		s, ok := spell[p.Key]
		if !ok {
			t.Fatalf("common parameter %q has no spelling in this test", p.Key)
		}
		params = append(params, fmt.Sprintf("%q: %s", p.Key, s.value))
		args = append(args, s.flags...)
	}
	manifest := filepath.Join(dir, "common.json")
	doc := `{"scenario": "fig2a", "params": {` + strings.Join(params, ", ") + `}}`
	if err := os.WriteFile(manifest, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	mustRun(t, "run", manifest, "-ws", ws.Root)
	mustRun(t, args...)
	if a, b := readFile(t, ws.RunDir("common-001"), workspace.ResultFile),
		readFile(t, ws.RunDir("fig2a-001"), workspace.ResultFile); a != b {
		t.Error("result.json differs between the manifest and the flags")
	}
	canonical := func(file string) string {
		s, err := metrics.Decode([]byte(readFile(t, dir, file)))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := s.Canonical().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if canonical("m.metrics.json") != canonical("f.metrics.json") {
		t.Error("metrics.json differs between the manifest and the flags")
	}
	if a, b := mustRun(t, "report", "m.trace", "-json"), mustRun(t, "report", "f.trace", "-json"); a != b {
		t.Error("the traces' report -json differs between the manifest and the flags")
	}
}
