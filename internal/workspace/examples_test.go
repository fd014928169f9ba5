package workspace_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/workspace"
)

// The controller, scheduler and fleet sweeps are committed manifests, not
// scenarios that enumerate a registry themselves — so these tests are what
// keeps them honest: the axes must name every registered policy, and every
// cell must have executed the history the comparison is about.

func loadExample(t *testing.T, name string) *scenario.Manifest {
	t.Helper()
	m, err := scenario.LoadManifest(filepath.Join("..", "..", "examples", "manifests", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sorted(names []string) []string { return slices.Sorted(slices.Values(names)) }

// axis returns the values of m's sweep axis over key (nil when it has none).
func axis(m *scenario.Manifest, key string) []string {
	for _, ax := range m.Sweep.Vary {
		if ax.Key == key {
			return ax.Values
		}
	}
	return nil
}

// Registering a controller or scheduler fails this test until the
// committed sweeps list it.
func TestExampleSweepsCoverRegistries(t *testing.T) {
	controllers, schedulers := smapp.Controllers.Names(), mptcp.Schedulers.Names()
	for _, tc := range []struct {
		manifest, scenario      string
		controllers, schedulers []string
	}{
		{"ctlsweep", "stream", append(controllers, "kernel"), nil},
		{"schedsweep", "stream", nil, schedulers},
		{"fleetsweep", "fleet", controllers, schedulers},
	} {
		m := loadExample(t, tc.manifest)
		if m.Scenario != tc.scenario {
			t.Errorf("%s: scenario %q, want %q", tc.manifest, m.Scenario, tc.scenario)
		}
		if got := sorted(axis(m, "policy")); !reflect.DeepEqual(got, sorted(tc.controllers)) {
			t.Errorf("%s: policy axis %v, want the registry %v", tc.manifest, got, sorted(tc.controllers))
		}
		if got := sorted(axis(m, "sched")); !reflect.DeepEqual(got, sorted(tc.schedulers)) {
			t.Errorf("%s: sched axis %v, want the registry %v", tc.manifest, got, sorted(tc.schedulers))
		}
	}
	if p := loadExample(t, "schedsweep").Params["policy"]; p != "kernel" {
		t.Errorf("schedsweep: policy %q, want the in-kernel full mesh", p)
	}
}

// cellResults runs m into ws and returns each cell's decoded result.json,
// by cell id, without the scalars it tags as wall-clock: those measure the
// host, not the run (scale's two throughput scalars).
func cellResults(t *testing.T, ws *workspace.Workspace, m *scenario.Manifest) map[string]*stats.ResultData {
	t.Helper()
	info := mustRun(t, ws, m)
	cells, err := workspace.CellDirs(info.Dir)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*stats.ResultData{}
	for _, c := range cells {
		buf, err := os.ReadFile(filepath.Join(info.Dir, "cells", c, workspace.ResultFile))
		if err != nil {
			t.Fatal(err)
		}
		if results[c], err = stats.DecodeResult(buf); err != nil {
			t.Fatal(err)
		}
		for _, k := range results[c].Wall {
			delete(results[c].Scalars, k)
		}
	}
	return results
}

// The four committed sweeps, planned from the files and run at reduced
// size: every cell ran what it claims to compare, and the whole sweep is
// bit-identical on a repeat and at four shards.
func TestExampleSweepsRun(t *testing.T) {
	const blocks = 10
	fewer := map[string]string{"blocks": strconv.Itoa(blocks)}
	for _, tc := range []struct {
		manifest string
		reduce   map[string]string
		check    func(t *testing.T, cells map[string]*stats.ResultData)
	}{
		{"ctlsweep", fewer, streamCells(blocks)},
		{"schedsweep", fewer, streamCells(blocks)},
		{"fleetsweep", map[string]string{"devices": "6", "kb": "16", "duration": "4s"}, fleetCells},
		{"scalesweep", map[string]string{"conns": "4", "kb": "128"}, scaleCells(4)},
	} {
		t.Run(tc.manifest, func(t *testing.T) {
			m := loadExample(t, tc.manifest)
			if m.Params == nil {
				m.Params = map[string]string{}
			}
			for k, v := range tc.reduce {
				m.Params[k] = v
			}
			plan, err := m.Plan(nil)
			if err != nil {
				t.Fatal(err)
			}
			ws := mustInit(t)
			cells := cellResults(t, ws, m)
			if len(cells) != len(plan) {
				t.Fatalf("%d cell results for a plan of %d cells", len(cells), len(plan))
			}
			tc.check(t, cells)

			repeat := cellResults(t, ws, m)
			m.Params["shards"] = "4"
			sharded := cellResults(t, ws, m)
			for id, want := range cells {
				if !reflect.DeepEqual(repeat[id], want) {
					t.Errorf("cell %s: result.json differs on a repeat", id)
				}
				if !reflect.DeepEqual(sharded[id], want) {
					t.Errorf("cell %s: result.json differs at shards=4", id)
				}
			}
		})
	}
}

func streamCells(blocks int) func(*testing.T, map[string]*stats.ResultData) {
	return func(t *testing.T, cells map[string]*stats.ResultData) {
		for id, r := range cells {
			if len(r.Samples) != 1 {
				t.Errorf("cell %s: %d distributions, want the one block-delay curve", id, len(r.Samples))
			}
			for name, xs := range r.Samples {
				if len(xs) != blocks {
					t.Errorf("cell %s: %d samples of %q, want one per block (%d)", id, len(xs), name, blocks)
				}
			}
		}
	}
}

// Every cell of the scale matrix is one scheduler under the in-kernel path
// manager, and finishes every transfer.
func scaleCells(conns float64) func(*testing.T, map[string]*stats.ResultData) {
	return func(t *testing.T, cells map[string]*stats.ResultData) {
		for _, sched := range []string{"lowest-rtt", "round-robin"} {
			r := cells[scenario.CellID([]string{"sched=" + sched, "policy=kernel"})]
			if r == nil {
				t.Fatalf("sched %s: cell missing from %d cells", sched, len(cells))
			}
			if got := r.Scalars[sched+"/kernel_completed"]; got != conns {
				t.Errorf("sched %s: completed %v of %v connections", sched, got, conns)
			}
		}
	}
}

// A fleet comparison is about mobility: every cell must have scheduled
// handovers, and break-before-make (backup) must stall longer than the
// pre-established full mesh under every scheduler.
func fleetCells(t *testing.T, cells map[string]*stats.ResultData) {
	for id, r := range cells {
		if r.Scalars["handovers_scheduled"] <= 0 {
			t.Errorf("cell %s: no handover scheduled — the cell compares nothing", id)
		}
	}
	for _, sched := range mptcp.Schedulers.Names() {
		id := func(policy string) string {
			return scenario.CellID([]string{"sched=" + sched, "policy=" + policy})
		}
		backup, fullmesh := cells[id("backup")], cells[id("fullmesh")]
		if backup == nil || fullmesh == nil {
			t.Fatalf("sched %s: backup/fullmesh cells missing from %d cells", sched, len(cells))
		}
		if b, f := backup.Scalars["gap_p99_s"], fullmesh.Scalars["gap_p99_s"]; b <= f {
			t.Errorf("sched %s: gap_p99_s backup %.3fs <= fullmesh %.3fs", sched, b, f)
		}
	}
}

// A sweep of several cells ends with every cell's curve on one axis; a
// one-cell sweep has nothing to compare and stays as it was, and the
// per-cell blocks of the larger sweep are the one-cell sweeps' own.
func TestSweepReportEndsWithCrossCellCDF(t *testing.T) {
	sweep := func(controllers ...string) string {
		m := &scenario.Manifest{
			Scenario: "stream",
			Params:   map[string]string{"smoke": "true"},
			Sweep:    &scenario.ManifestSweep{Vary: []scenario.ManifestAxis{{Key: "policy", Values: controllers}}},
		}
		var out strings.Builder
		ok, err := workspace.Execute(m, workspace.RunOptions{Echo: func(r string) { out.WriteString(r) }})
		if err != nil || !ok {
			t.Fatalf("sweep %v: ok=%v err=%v", controllers, ok, err)
		}
		return out.String()
	}
	const section = "\n== block completion time (s): CDF per cell ==\n"
	var blocks string
	for _, c := range []string{"kernel", "stream"} {
		one := sweep(c)
		if strings.Contains(one, "CDF per cell") {
			t.Fatalf("one-cell sweep drew a cross-cell CDF:\n%s", one)
		}
		_, block, _ := strings.Cut(one, "\n") // drop the "1 cells" header line
		blocks += block
	}
	both := sweep("kernel", "stream")
	before, cdf, found := strings.Cut(both, section)
	if !found {
		t.Fatalf("two-cell sweep has no cross-cell CDF section:\n%s", both)
	}
	want := "===== sweep: stream × 2 cells × 1 seeds =====\n" + blocks + "\n== cell comparison (means over 1 seeds) ==\n"
	if !strings.HasPrefix(before, want) {
		t.Errorf("sections before the CDF changed:\n%s\nwant prefix:\n%s", before, want)
	}
	if strings.Contains(cdf, "\n== ") {
		t.Errorf("the cross-cell CDF is not the last section:\n%s", cdf)
	}
	for _, label := range []string{"policy=kernel", "policy=stream"} {
		if !strings.Contains(cdf, "] "+label+"  n=10 ") {
			t.Errorf("CDF legend misses cell %q with its 10 blocks:\n%s", label, cdf)
		}
	}
}

// A sweep report compares cells, and a wall-clock scalar measures the host
// instead: scale's throughput scalars stay in each cell's result.json and
// out of the report.
func TestSweepReportLeavesOutWallScalars(t *testing.T) {
	m := &scenario.Manifest{
		Scenario: "scale",
		Params:   map[string]string{"smoke": "true"},
		Sweep:    &scenario.ManifestSweep{Vary: []scenario.ManifestAxis{{Key: "sched", Values: []string{"lowest-rtt", "round-robin"}}}},
	}
	info := mustRun(t, mustInit(t), m)
	cells, err := workspace.CellDirs(info.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		buf, err := os.ReadFile(filepath.Join(info.Dir, "cells", c, workspace.ResultFile))
		if err != nil {
			t.Fatal(err)
		}
		r, err := stats.DecodeResult(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Wall) == 0 {
			t.Fatalf("cell %s tags no wall-clock scalar: nothing to leave out", c)
		}
	}
	report, err := os.ReadFile(filepath.Join(info.Dir, workspace.ReportFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(report), "_per_wall_s") {
		t.Errorf("sweep report prints wall-clock scalars:\n%s", report)
	}
}
