package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/workspace"
)

// `init` creates a workspace and says where its parts are; the example
// manifest it writes runs as it is; a second `init` there is refused.
func TestInit(t *testing.T) {
	dir := t.TempDir()
	out := mustRun(t, "init", dir)
	root := filepath.Join(dir, workspace.DirName)
	ws, err := workspace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"at " + root + "\n", "under " + ws.ManifestDir() + " ", root + "/runs"} {
		if !strings.Contains(out, want) {
			t.Errorf("init printed no %q:\n%s", want, out)
		}
	}
	mustRun(t, "run", filepath.Join(ws.ManifestDir(), "example-fig2a.json"), "-ws", dir)
	if _, err := os.Stat(filepath.Join(ws.RunDir("example-fig2a-001"), workspace.TraceFile)); err != nil {
		t.Errorf("the example manifest stored no trace: %v", err)
	}
	if _, errb, status := mpexp(t, "init", dir); status != 2 || !strings.Contains(errb, "already exists") {
		t.Errorf("second init: exit %d, stderr %q", status, errb)
	}
	if _, _, status := mpexp(t, "init", dir, "extra"); status != 2 {
		t.Errorf("init with two directories: exit %d, want 2", status)
	}
}

// A multi-seed run stores each seed's result.json.seed<N>, named by its
// absolute seed, and no result.json. Two runs at one base seed diff clean
// at tolerance 0; runs at base seeds 1 and 2 share seed 2, and the diff
// names each seed only one of them ran.
func TestDiffPerSeedResults(t *testing.T) {
	dir := t.TempDir()
	if _, err := workspace.Init(dir); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "1", "2"} {
		mustRun(t, "run", "fig2b", "-set", "smoke", "-seeds", "2", "-seed", seed, "-ws", dir)
	}
	ws, _ := workspace.Open(dir)
	entries, err := os.ReadDir(ws.RunDir("fig2b-003"))
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), workspace.ResultFile) {
			results = append(results, e.Name())
		}
	}
	if want := []string{"result.json.seed2", "result.json.seed3"}; !slices.Equal(results, want) {
		t.Errorf("seeds 2 and 3 stored %v, want %v", results, want)
	}

	out := mustRun(t, "diff", "fig2b-001", "fig2b-002", "-tol", "0", "-ws", dir)
	if !strings.Contains(out, "identical within tolerance") {
		t.Errorf("same-seed multi-seed runs differ:\n%s", out)
	}
	// Run directories by path, with the flags after them.
	out, _, status := mpexp(t, "diff", ws.RunDir("fig2b-001"), ws.RunDir("fig2b-003"), "-tol", "0")
	if status != 1 {
		t.Errorf("diff across base seeds: exit %d, want 1", status)
	}
	for _, want := range []string{"result.json.seed1: only in A", "result.json.seed3: only in B"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff across base seeds does not say %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "result.json.seed2") {
		t.Errorf("the seed both runs share differs:\n%s", out)
	}
	if _, errb, status := mpexp(t, "diff", "fig2b-001", "-ws", dir); status != 2 || !strings.Contains(errb, "want exactly two runs") {
		t.Errorf("diff of one run: exit %d, stderr %q", status, errb)
	}
}

// `report` analyses a recorded trace as text, as JSON, and into CSV files,
// and names a trace it cannot read.
func TestReport(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "fig2a.trace")
	mustRun(t, "run", "fig2a", "-set", "smoke", "-set", "trace="+tr, "-ws", "none")
	if text := mustRun(t, "report", tr); !strings.Contains(text, "handover") {
		t.Errorf("text report has no handover section:\n%s", text)
	}
	var analysis map[string]any
	if err := json.Unmarshal([]byte(mustRun(t, "report", tr, "-json")), &analysis); err != nil || len(analysis) == 0 {
		t.Errorf("report -json is no JSON object: %v", err)
	}
	csv := filepath.Join(dir, "csv")
	mustRun(t, "report", tr, "-csv", csv)
	if files, _ := filepath.Glob(filepath.Join(csv, "*.csv")); len(files) == 0 {
		t.Error("report -csv wrote no CSV file")
	}
	out, errb, status := mpexp(t, "report", tr, filepath.Join(dir, "missing"))
	if status != 1 || !strings.Contains(out, "### "+tr) || !strings.Contains(errb, "missing") {
		t.Errorf("report of a good and a missing trace: exit %d, stderr %q", status, errb)
	}
	if _, _, status := mpexp(t, "report"); status != 2 {
		t.Errorf("report without a trace: exit %d, want 2", status)
	}
}

// `all` runs every registered scenario and each baseline variant, in
// order: its report headers are those of the single runs.
func TestAll(t *testing.T) {
	var want []string
	for _, name := range scenario.Scenarios.Names() {
		want = append(want, headers(mustRun(t, "run", name, "-set", "smoke", "-ws", "none"))...)
		if v, ok := allVariants[name]; ok {
			want = append(want, headers(mustRun(t, "run", name, "-set", "smoke", "-set", v.key+"="+v.val, "-ws", "none"))...)
		}
	}
	if got := headers(mustRun(t, "all", "-set", "smoke", "-ws", "none")); !slices.Equal(got, want) {
		t.Errorf("all printed headers\n%q\nwant\n%q", got, want)
	}
}

// headers lists the title lines of a report: each line right after a
// "=====" rule that is not itself one.
func headers(report string) []string {
	var out []string
	lines := strings.Split(report, "\n")
	for i := 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i-1], "=====") && !strings.HasPrefix(lines[i], "=====") {
			out = append(out, lines[i])
		}
	}
	return out
}

func TestExitErrorAndPositionals(t *testing.T) {
	if got := exitError(2).Error(); got != "exit status 2" {
		t.Errorf("exitError(2) = %q", got)
	}
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	tol := fs.Float64("tol", 0, "")
	pos, err := parsePositionalsFirst(fs, []string{"a", "b", "-tol", "0.5", "c"})
	if err != nil || !slices.Equal(pos, []string{"a", "b", "c"}) || *tol != 0.5 {
		t.Errorf("parsePositionalsFirst = %v, %v with tol %g", pos, err, *tol)
	}
}

// No flag of run, sweep or all spells a scenario knob: every parameter a
// registered scenario reads, and every key a committed manifest sweeps
// over, is written with -set (or swept with -vary) and no other way. The
// flag sets are pinned whole as well, so a second spelling under another
// name (-controller writing "policy") fails too.
func TestNoFlagSpellsAParameter(t *testing.T) {
	keys := map[string]bool{}
	for _, name := range scenario.Scenarios.Names() {
		own, common := scenario.ParamDocs(name)
		for _, d := range append(own, common...) {
			keys[d.Key] = true
		}
	}
	files, err := filepath.Glob(manifests + "*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example manifests (%v)", err)
	}
	for _, f := range files {
		m, err := scenario.LoadManifest(f)
		if err != nil {
			t.Fatal(err)
		}
		if m.Sweep != nil {
			for _, ax := range m.Sweep.Vary {
				keys[ax.Key] = true
			}
		}
	}
	for _, key := range []string{"sched", "policy", "smoke", "shards", "trace", "metrics"} {
		if !keys[key] {
			t.Fatalf("parameter %q is not listed: the check below checks nothing for it", key)
		}
	}
	common := []string{"cpuprofile", "memprofile", "parallel", "seed", "seeds", "set", "ws"}
	for cmd, want := range map[string][]string{
		"run":   common,
		"sweep": append(slices.Clone(common), "vary"),
		"all":   common,
	} {
		var got []string
		(&cli{stderr: io.Discard}).newRunFlags(cmd).fs.VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name)
			if keys[f.Name] {
				t.Errorf("%s: flag -%s spells the parameter %q; write it with -set", cmd, f.Name, f.Name)
			}
		})
		if want = slices.Sorted(slices.Values(want)); !slices.Equal(got, want) {
			t.Errorf("%s takes flags %v, want %v", cmd, got, want)
		}
	}
}
