package workspace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "repro/internal/experiments" // register fig2a & friends
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workspace"
)

func fig2aManifest() *scenario.Manifest {
	return &scenario.Manifest{
		Scenario: "fig2a",
		Params:   map[string]string{"smoke": "true", "loss": "0.30"},
		Seed:     1,
	}
}

func mustInit(t *testing.T) *workspace.Workspace {
	t.Helper()
	ws, err := workspace.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func mustRun(t *testing.T, ws *workspace.Workspace, m *scenario.Manifest) *workspace.RunInfo {
	t.Helper()
	info, err := ws.Run(m, workspace.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.OK {
		t.Fatalf("run %s reported failure", info.ID)
	}
	return info
}

// The acceptance criterion: a fig2a manifest run stores the exact bytes
// the flag path (`mpexp run fig2a -set smoke=true -set loss=0.30`)
// computes — same registry, same validation, same seed, same encoding.
func TestManifestRunMatchesFlagPath(t *testing.T) {
	ws := mustInit(t)
	info := mustRun(t, ws, fig2aManifest())

	// The flag path: ParseSets -> Job -> encode, no workspace involved.
	p, err := scenario.ParseSets([]string{"smoke=true", "loss=0.30"})
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.Job("fig2a", p)(1)
	want, err := res.Data().Encode()
	if err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(info.Dir, workspace.ResultFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest run result.json differs from flag-path encoding\nmanifest: %d bytes\nflags:    %d bytes",
			len(got), len(want))
	}
}

func TestRunArtifactsAndIndex(t *testing.T) {
	ws := mustInit(t)
	info := mustRun(t, ws, fig2aManifest())
	if info.ID != "fig2a-001" {
		t.Fatalf("first run id = %q, want fig2a-001", info.ID)
	}
	for _, f := range []string{workspace.ManifestFile, workspace.ResultFile, workspace.ReportFile} {
		if _, err := os.Stat(filepath.Join(info.Dir, f)); err != nil {
			t.Errorf("run dir missing %s: %v", f, err)
		}
	}
	// The stored manifest is the resolved snapshot, reloadable as-is.
	m2, err := scenario.LoadManifest(filepath.Join(info.Dir, workspace.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Scenario != "fig2a" || m2.Seed != 1 || m2.Params["loss"] != "0.30" {
		t.Fatalf("snapshot did not round-trip: %+v", m2)
	}
	idx, err := ws.ReadIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Runs) != 1 || idx.Runs[0].ID != "fig2a-001" || idx.Runs[0].Scenario != "fig2a" {
		t.Fatalf("index = %+v", idx.Runs)
	}
	// A second run gets the next ordinal and both land in the index.
	if info2 := mustRun(t, ws, fig2aManifest()); info2.ID != "fig2a-002" {
		t.Fatalf("second run id = %q", info2.ID)
	}
	if idx, err = ws.ReadIndex(); err != nil || len(idx.Runs) != 2 {
		t.Fatalf("index after second run: %v %v", idx, err)
	}
}

// Two same-seed runs of a deterministic scenario must diff clean at
// tolerance 0 — the workspace's core regression statement.
func TestDiffSelfClean(t *testing.T) {
	ws := mustInit(t)
	a := mustRun(t, ws, fig2aManifest())
	b := mustRun(t, ws, fig2aManifest())
	rep, err := workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("same-seed diff not clean:\n%s", rep)
	}
	if rep.Compared == 0 {
		t.Fatal("diff compared nothing — the gate is vacuous")
	}
}

// A perturbed scalar must be caught at tolerance 0 and forgiven within a
// relative tolerance that covers the perturbation.
func TestDiffCatchesPerturbation(t *testing.T) {
	ws := mustInit(t)
	a := mustRun(t, ws, fig2aManifest())
	b := mustRun(t, ws, fig2aManifest())

	path := filepath.Join(b.Dir, workspace.ResultFile)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Nudge one simulation scalar by 1% and write the result back.
	d, err := stats.DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Skip the keys the result itself tags as wall-clock — the same
	// tag-driven exclusion the diff applies.
	wall := make(map[string]bool, len(d.Wall))
	for _, k := range d.Wall {
		wall[k] = true
	}
	nudged := false
	for k, v := range d.Scalars {
		if v == 0 || wall[k] {
			continue
		}
		d.Scalars[k] = v * 1.01
		nudged = true
		break
	}
	if !nudged {
		t.Fatal("no perturbable scalar in fig2a result")
	}
	if buf, err = d.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("tolerance 0 missed a perturbed scalar")
	}
	rep, err = workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{RelTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("rel tolerance 0.05 still flags a 1%% nudge:\n%s", rep)
	}
}

// A multi-run spec writes one metrics.json.<label> per run; the diff must
// compare each of them, and name the file a difference is in.
func TestDiffCoversLabelledMetricsFiles(t *testing.T) {
	ws := mustInit(t)
	m := &scenario.Manifest{Scenario: "ctlstress", Params: map[string]string{"smoke": "true"}, Seed: 1, Metrics: true}
	a, b := mustRun(t, ws, m), mustRun(t, ws, m)
	rep, err := workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("same-seed metered diff not clean:\n%s", rep)
	}

	const file = workspace.MetricsFile + ".coalesced"
	buf, err := os.ReadFile(filepath.Join(b.Dir, file))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	snap.Get("ctl_flushes").Value++
	if err := snap.WriteFile(filepath.Join(b.Dir, file)); err != nil {
		t.Fatal(err)
	}
	if rep, err = workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 1 || !strings.HasPrefix(rep.Lines[0], file+": metric ctl_flushes: ") {
		t.Fatalf("doctored %s reported as:\n%s", file, rep)
	}
	if err := os.Remove(filepath.Join(b.Dir, file)); err != nil {
		t.Fatal(err)
	}
	if rep, err = workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 1 || rep.Lines[0] != file+": only in A" {
		t.Fatalf("missing %s reported as:\n%s", file, rep)
	}
}

func TestSweepRunCellsAndDiff(t *testing.T) {
	m := &scenario.Manifest{
		Name:     "sweep-test",
		Scenario: "fig2a",
		Params:   map[string]string{"smoke": "true"},
		Seed:     1,
		Sweep: &scenario.ManifestSweep{
			Vary: []scenario.ManifestAxis{{Key: "loss", Values: []string{"0.1", "0.3"}}},
		},
	}
	ws := mustInit(t)
	a := mustRun(t, ws, m)
	b := mustRun(t, ws, m)

	cells, err := workspace.CellDirs(a.Dir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(plan) {
		t.Fatalf("cells = %v, want the %d of the plan", cells, len(plan))
	}
	for i, c := range plan {
		if cells[i] != c.ID { // loss-0.1 < loss-0.3: plan order is directory order here
			t.Errorf("cell directory %d = %q, want %q", i, cells[i], c.ID)
		}
	}
	for _, c := range cells {
		if _, err := os.Stat(filepath.Join(a.Dir, "cells", c, workspace.ResultFile)); err != nil {
			t.Errorf("cell %s missing result.json: %v", c, err)
		}
	}

	// The run directory's own report is the sweep table.
	table, err := os.ReadFile(filepath.Join(a.Dir, workspace.ReportFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sweep: fig2a × 2 cells × 1 seeds", "-- loss=0.1 --", "cell comparison", "switch_delay_s"} {
		if !strings.Contains(string(table), want) {
			t.Fatalf("sweep report missing %q:\n%s", want, table)
		}
	}

	rep, err := workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("same-seed sweep diff not clean:\n%s", rep)
	}

	// Removing a cell from one side is a reported difference, not an error.
	if err := os.RemoveAll(filepath.Join(b.Dir, "cells", cells[0])); err != nil {
		t.Fatal(err)
	}
	rep, err = workspace.DiffRuns(a.Dir, b.Dir, workspace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || !strings.Contains(rep.String(), "only in") {
		t.Fatalf("missing cell not flagged:\n%s", rep)
	}
}

// A run is a one-cell sweep: the same manifest with and without an (empty)
// sweep block simulates the same thing, stored in the run directory for
// the one and in cells/defaults/ for the other.
func TestRunIsOneCellSweep(t *testing.T) {
	ws := mustInit(t)
	for _, name := range []string{"fig2a", "fig2b"} {
		m := &scenario.Manifest{Scenario: name, Params: map[string]string{"smoke": "true"}}
		run := mustRun(t, ws, m)
		m.Sweep = &scenario.ManifestSweep{}
		sweep := mustRun(t, ws, m)

		cells, err := workspace.CellDirs(sweep.Dir)
		if err != nil || len(cells) != 1 || cells[0] != "defaults" {
			t.Fatalf("%s: sweep without axes has cells %v (%v), want [defaults]", name, cells, err)
		}
		for _, f := range []string{workspace.ResultFile, workspace.ReportFile} {
			a, err := os.ReadFile(filepath.Join(run.Dir, f))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(sweep.Dir, "cells", "defaults", f))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: %s of the run and of the sweep's one cell differ", name, f)
			}
		}
	}
}

// A manifest that does not validate leaves no run directory behind, and
// the next run gets the ordinal it would have had.
func TestInvalidManifestLeavesNoRun(t *testing.T) {
	ws := mustInit(t)
	bad := fig2aManifest()
	bad.Params["nosuch"] = "1"
	if _, err := ws.Run(bad, workspace.RunOptions{}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("err = %v, want the unknown parameter", err)
	}
	if _, err := os.Stat(ws.RunDir("fig2a-001")); !os.IsNotExist(err) {
		t.Fatalf("rejected manifest left a run directory behind (stat: %v)", err)
	}
	if info := mustRun(t, ws, fig2aManifest()); info.ID != "fig2a-001" {
		t.Fatalf("first valid run id = %q, want fig2a-001", info.ID)
	}
}

func TestInitOpenDiscover(t *testing.T) {
	parent := t.TempDir()
	ws, err := workspace.Init(parent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workspace.Init(parent); err == nil {
		t.Fatal("second Init in the same directory must fail")
	}
	got, err := workspace.Discover(parent)
	if err != nil || got == nil || got.Root != ws.Root {
		t.Fatalf("Discover = %v, %v; want root %s", got, err, ws.Root)
	}
	// Discovery is deliberately cwd-only — a nested directory does NOT
	// inherit the parent's workspace (runs land where you stand).
	nested := filepath.Join(parent, "a", "b")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	if got, err = workspace.Discover(nested); err != nil || got != nil {
		t.Fatalf("Discover from nested dir = %v, %v; want nil, nil", got, err)
	}
	// No workspace in an isolated temp dir either: nil, nil.
	if got, err = workspace.Discover(t.TempDir()); err != nil || got != nil {
		t.Fatalf("Discover without workspace = %v, %v; want nil, nil", got, err)
	}
	if _, err := workspace.Open(filepath.Join(parent, "nope")); err == nil {
		t.Fatal("Open on a missing directory must fail")
	}
}
