// Package workspace is the on-disk experiment workspace behind
// `mpexp init/run/diff`: a `.mpexp/` directory holding authored scenario
// manifests and one directory per executed run (or per sweep cell), each
// with the machine-readable result of every seed, the rendered report, the
// trace and metrics files when enabled, and a snapshot of the resolved
// manifest — plus a generated top-level index of everything that ran.
// Sweep outputs stop vanishing into stdout: every run is a durable,
// diffable artifact.
//
// Layout:
//
//	.mpexp/
//	  README.md            # generated orientation file
//	  manifests/           # authored scenario manifests (committable)
//	  index.json           # generated index of all runs
//	  runs/
//	    <name>-NNN/        # one directory per `mpexp run`/`sweep`
//	      manifest.json    # resolved manifest snapshot (what actually ran)
//	      report.txt       # rendered report (aggregate for multi-seed)
//	      result.json      # stats result (single-seed runs)
//	      result.json.seed<N>  # one per finished seed N (multi-seed runs)
//	      trace            # binary event trace (when enabled)
//	      metrics.json     # runtime metrics snapshot (when enabled)
//	      metrics.json.seed<N>  # one per seed N (metered multi-seed runs)
//	      cells/<cell>/    # sweeps: the same artifact set per cell
//
// A level that writes several files where one would do names each by
// scenario.PartFile: result.json.seed3, or metrics.json.coalesced for one
// run of a multi-run spec; `mpexp diff` pairs them by name.
//
// Run directories are append-only: a new run of the same manifest gets
// the next ordinal (<name>-001, <name>-002, ...), so `mpexp diff` can
// compare any two of them.
package workspace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// DirName is the workspace directory a parent directory holds.
const DirName = ".mpexp"

// Filenames within a run (or cell) directory.
const (
	ManifestFile = "manifest.json"
	ResultFile   = "result.json"
	ReportFile   = "report.txt"
	TraceFile    = "trace"
	MetricsFile  = "metrics.json"
	IndexFile    = "index.json"
	cellsDir     = "cells"
	runsDir      = "runs"
	manifestsDir = "manifests"
)

// Workspace is an opened .mpexp directory.
type Workspace struct {
	// Root is the .mpexp directory itself.
	Root string
}

// Init creates a workspace under parent (parent/.mpexp) and seeds it
// with the README, the manifests/ and runs/ directories, an example
// manifest, and an empty index. Initialising where a workspace already
// exists is an error — a workspace is data, never silently overwritten.
func Init(parent string) (*Workspace, error) {
	root := filepath.Join(parent, DirName)
	if _, err := os.Stat(root); err == nil {
		return nil, fmt.Errorf("workspace: %s already exists", root)
	}
	for _, dir := range []string{root, filepath.Join(root, manifestsDir), filepath.Join(root, runsDir)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("workspace: %w", err)
		}
	}
	if err := writeFile(root, "README.md", []byte(readme)); err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(root, manifestsDir), "example-fig2a.json", []byte(exampleManifest)); err != nil {
		return nil, err
	}
	ws := &Workspace{Root: root}
	if err := ws.WriteIndex(); err != nil {
		return nil, err
	}
	return ws, nil
}

// Open resolves an existing workspace from dir: dir may be the .mpexp
// directory itself or the directory containing it.
func Open(dir string) (*Workspace, error) {
	root := dir
	if filepath.Base(root) != DirName {
		root = filepath.Join(dir, DirName)
	}
	fi, err := os.Stat(root)
	if err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("workspace: no %s directory at %s (create one with `mpexp init`)", DirName, dir)
	}
	return &Workspace{Root: root}, nil
}

// Discover opens the workspace of the current directory if one exists;
// it returns (nil, nil) when there is none — running outside a workspace
// is not an error, results just stay on stdout.
func Discover(dir string) (*Workspace, error) {
	root := filepath.Join(dir, DirName)
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
		return nil, nil
	}
	return &Workspace{Root: root}, nil
}

// ManifestDir returns the authored-manifests directory.
func (ws *Workspace) ManifestDir() string { return filepath.Join(ws.Root, manifestsDir) }

// RunDir resolves a run id ("fig2a-001") to its directory.
func (ws *Workspace) RunDir(id string) string { return filepath.Join(ws.Root, runsDir, id) }

// createRunDir allocates the next ordinal run directory for name.
func (ws *Workspace) createRunDir(name string) (id, dir string, err error) {
	if name = scenario.SafeName(name); name == "" {
		name = "run"
	}
	for n := 1; n < 10000; n++ {
		id = fmt.Sprintf("%s-%03d", name, n)
		dir = ws.RunDir(id)
		err = os.Mkdir(dir, 0o755)
		if err == nil {
			return id, dir, nil
		}
		if !os.IsExist(err) {
			return "", "", fmt.Errorf("workspace: %w", err)
		}
	}
	return "", "", fmt.Errorf("workspace: no free run ordinal for %q", name)
}

// RunInfo describes one completed workspace run.
type RunInfo struct {
	ID  string // run identifier (directory base name)
	Dir string // absolute run directory
	// OK is false when any seed of any cell failed; artifacts are still
	// written for the seeds that succeeded.
	OK bool
}

// RunOptions tune execution; the zero value works.
type RunOptions struct {
	// Parallel bounds concurrent seeds per run/cell (0 = GOMAXPROCS).
	Parallel int
	// Echo, when non-nil, receives the rendered report as it would have
	// printed without a workspace (the CLI passes os.Stdout).
	Echo func(report string)
	// Progress, when non-nil, receives one line per finished seed/cell.
	Progress func(line string)
}

func (opt RunOptions) echo(report string) {
	if opt.Echo != nil {
		opt.Echo(report)
	}
}

func (opt RunOptions) progress(format string, args ...any) {
	if opt.Progress != nil {
		opt.Progress(fmt.Sprintf(format, args...))
	}
}

// Execute validates and runs a manifest without an artifact directory:
// reports go to opt.Echo, and a trace or metrics file is written only
// where the manifest names one. It reports whether every seed of every
// cell succeeded.
func Execute(m *scenario.Manifest, opt RunOptions) (bool, error) {
	return execute(m, "", opt)
}

// Run executes a manifest into a fresh run directory: validates it
// against the live scenario registry (the same Build path `-set` flags
// take), snapshots the resolved manifest, runs every cell of its plan,
// and writes the result files, report.txt, and the trace and
// metrics files per run or cell, then regenerates the workspace index.
func (ws *Workspace) Run(m *scenario.Manifest, opt RunOptions) (*RunInfo, error) {
	id, dir, err := ws.createRunDir(m.RunName())
	if err != nil {
		return nil, err
	}
	info := &RunInfo{ID: id, Dir: dir}
	if info.OK, err = execute(m, dir, opt); err != nil {
		return nil, err
	}
	if err := ws.WriteIndex(); err != nil {
		return nil, err
	}
	return info, nil
}

// artifactFile is the name a cell's trace or metrics file gets inside its
// directory, by the key scenario.Manifest.Plan asks about.
var artifactFile = map[string]string{"trace": TraceFile, "metrics": MetricsFile}

// execute is the one manifest executor behind every `mpexp run`, `sweep`
// and `all`: the manifest's plan, cell by cell on the multi-seed runner.
// dir is the artifact directory; "" stores nothing. A run is the one-cell
// plan whose artifacts land in dir itself; a sweep's cells get
// cells/<cellID>/ each, holding the same artifact set, next to the sweep
// table. What else differs is presentation: a run prints its cell's
// report and a progress line per seed, a sweep the table over all cells
// and a progress line per cell.
func execute(m *scenario.Manifest, dir string, opt RunOptions) (bool, error) {
	sweep := m.Sweep != nil
	cellDir := func(cellID string) string {
		if dir == "" || !sweep {
			return dir
		}
		return filepath.Join(dir, cellsDir, cellID)
	}
	// A file the manifest names is honoured where there is no directory,
	// and for a run; a captured sweep keeps every cell's set complete.
	cells, err := m.Plan(func(cellID, key, named string) string {
		if dir == "" || named != "" && !sweep {
			return named
		}
		return filepath.Join(cellDir(cellID), artifactFile[key])
	})
	if err != nil {
		if dir != "" {
			os.Remove(dir) // still empty: an invalid manifest leaves no run behind
		}
		return false, err
	}
	if dir != "" {
		snapshot, err := m.Snapshot()
		if err != nil {
			return false, err
		}
		if err := writeFile(dir, ManifestFile, snapshot); err != nil {
			return false, err
		}
	}
	ok := true
	multis := make([]*runner.Multi, len(cells))
	for i, c := range cells {
		name := m.RunName()
		cfg := runner.Config{Seeds: m.EffectiveSeeds(), BaseSeed: m.BaseSeed(), Parallel: opt.Parallel}
		if sweep {
			name = m.Scenario + " " + c.Label
		} else {
			cfg.OnDone = func(sr runner.SeedResult) { opt.progress("[seed %d done]", sr.Seed) }
		}
		cdir := cellDir(c.ID)
		if cdir != "" {
			// Before the cell runs: its trace and metrics land here.
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				return false, fmt.Errorf("workspace: %w", err)
			}
		}
		multi := runner.Run(name, cfg, m.Job(c))
		multis[i] = multi
		ok = ok && len(multi.Failed()) == 0
		report := reportOf(multi)
		if sweep {
			opt.progress("[cell %s done]", c.Label)
		} else {
			opt.echo(report)
		}
		if err := store(cdir, report, multi); err != nil {
			return false, err
		}
	}
	if sweep {
		report := sweepReport(m, cells, multis)
		opt.echo(report)
		if dir != "" {
			return ok, writeReport(dir, report)
		}
	}
	return ok, nil
}

// sweepReport renders a sweep: one scalar-summary block per cell, then a
// cross-cell comparison table over the scalars every cell shares, then —
// for each raw distribution every cell collected — the cells' CDFs on one
// axis. Wall-clock scalars are left out: they measure the host, not the
// cell, and result.json keeps them.
func sweepReport(m *scenario.Manifest, cells []scenario.Cell, multis []*runner.Multi) string {
	var b strings.Builder
	seeds := m.EffectiveSeeds()
	fmt.Fprintf(&b, "===== sweep: %s × %d cells × %d seeds =====\n", m.Scenario, len(cells), seeds)

	// Aggregate each cell once; only the scalars every cell has can be
	// compared.
	summaries := make([]map[string]*stats.Sample, len(cells))
	for i, multi := range multis {
		summaries[i] = multi.ScalarSummary()
		for _, k := range multi.WallKeys() {
			delete(summaries[i], k)
		}
	}
	keys := sharedKeys(summaries)

	for i, c := range cells {
		fmt.Fprintf(&b, "\n-- %s --\n", c.Label)
		for _, k := range keys {
			fmt.Fprintf(&b, "   %-32s mean %12.4f\n", k, summaries[i][k].Mean())
		}
		if failed := multis[i].Failed(); len(failed) > 0 {
			fmt.Fprintf(&b, "   FAILED seeds: %d (first: %v)\n", len(failed), failed[0].Err)
		}
	}
	if len(cells) < 2 {
		return b.String()
	}

	if len(keys) > 0 {
		fmt.Fprintf(&b, "\n== cell comparison (means over %d seeds) ==\n", seeds)
		width := 0
		for _, c := range cells {
			width = max(width, len(c.Label))
		}
		for _, k := range keys {
			fmt.Fprintf(&b, "%s:\n", k)
			for i, c := range cells {
				fmt.Fprintf(&b, "   %-*s %12.4f\n", width, c.Label, summaries[i][k].Mean())
			}
		}
	}
	// Likewise the raw distributions, pooled over each cell's seeds.
	samples := make([]map[string]*stats.Sample, len(cells))
	for i, multi := range multis {
		samples[i] = multi.MergedSamples()
	}
	for _, name := range sharedKeys(samples) {
		curves := make(map[string]*stats.Sample, len(cells))
		for i, c := range cells {
			curves[c.Label] = samples[i][name]
		}
		fmt.Fprintf(&b, "\n== %s: CDF per cell ==\n", name)
		b.WriteString(stats.RenderCDFs(64, 16, curves))
	}
	return b.String()
}

// sharedKeys lists, sorted, the keys present in every one of the maps.
func sharedKeys(maps []map[string]*stats.Sample) []string {
	count := map[string]int{}
	for _, m := range maps {
		for k := range m {
			count[k]++
		}
	}
	var keys []string
	for k, n := range count {
		if n == len(maps) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// reportOf renders what one run (or sweep cell) prints: the seed's own
// report for a single seed — or its failure, where the report would have
// been — and the cross-seed aggregate otherwise.
func reportOf(m *runner.Multi) string {
	if m.Config.Seeds > 1 {
		return m.Report()
	}
	if sr := m.PerSeed[0]; sr.Err != nil {
		return fmt.Sprintf("FAILED: %v\n", sr.Err)
	}
	return m.PerSeed[0].Result.Report
}

// store writes one run's (or sweep cell's) artifacts into dir: its
// rendered report as report.txt, plus each finished seed's result —
// result.json for a single seed, result.json.seed<N> for seed N of
// several. It stores nothing when dir is "".
func store(dir, report string, m *runner.Multi) error {
	if dir == "" {
		return nil
	}
	if err := writeReport(dir, report); err != nil {
		return err
	}
	for _, sr := range m.PerSeed {
		if sr.Err != nil {
			continue
		}
		buf, err := sr.Result.Data().Encode()
		if err != nil {
			return err
		}
		name := ResultFile
		if m.Config.Seeds > 1 {
			name = scenario.PartFile(name, fmt.Sprintf("seed%d", sr.Seed))
		}
		if err := writeFile(dir, name, buf); err != nil {
			return err
		}
	}
	return nil
}

func writeReport(dir, report string) error {
	return writeFile(dir, ReportFile, []byte(report))
}

func writeFile(dir, name string, data []byte) error {
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return fmt.Errorf("workspace: %w", err)
	}
	return nil
}

// IndexEntry is one run in the workspace index.
type IndexEntry struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	Kind     string `json:"kind"` // "run" or "sweep"
	Seeds    int    `json:"seeds"`
	Cells    int    `json:"cells,omitempty"` // sweep cell count
	Trace    bool   `json:"trace,omitempty"`
	Metrics  bool   `json:"metrics,omitempty"`
}

// Index is the generated top-level index.json: every run directory,
// sorted by id — the workspace's discoverable table of contents, like
// dbharness's generated context tree.
type Index struct {
	Runs []IndexEntry `json:"runs"`
}

// ReadIndex loads the current index.
func (ws *Workspace) ReadIndex() (*Index, error) {
	buf, err := os.ReadFile(filepath.Join(ws.Root, IndexFile))
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	idx := &Index{}
	if err := json.Unmarshal(buf, idx); err != nil {
		return nil, fmt.Errorf("workspace: index: %w", err)
	}
	return idx, nil
}

// WriteIndex regenerates index.json by scanning the run directories:
// each run's snapshot manifest supplies its scenario/seeds/kind, and the
// cells/ directory its cell count. Runs whose manifest is unreadable are
// indexed by id alone rather than aborting the scan.
func (ws *Workspace) WriteIndex() error {
	idx := &Index{Runs: []IndexEntry{}}
	entries, err := os.ReadDir(filepath.Join(ws.Root, runsDir))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("workspace: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ie := IndexEntry{ID: e.Name(), Kind: "run", Seeds: 1}
		dir := ws.RunDir(e.Name())
		if m, err := scenario.LoadManifest(filepath.Join(dir, ManifestFile)); err == nil {
			ie.Scenario = m.Scenario
			ie.Name = m.RunName()
			ie.Seeds = m.EffectiveSeeds()
			_, ie.Trace = m.Params["trace"]
			_, ie.Metrics = m.Params["metrics"]
			if m.Sweep != nil {
				ie.Kind = "sweep"
				ie.Cells = countDirs(filepath.Join(dir, cellsDir))
			}
		}
		idx.Runs = append(idx.Runs, ie)
	}
	sort.Slice(idx.Runs, func(i, j int) bool { return idx.Runs[i].ID < idx.Runs[j].ID })
	buf, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("workspace: index: %w", err)
	}
	return writeFile(ws.Root, IndexFile, append(buf, '\n'))
}

func countDirs(dir string) int {
	n := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() {
			n++
		}
	}
	return n
}

// CellDirs lists the cell directories of a sweep run directory, sorted.
func CellDirs(runDir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(runDir, cellsDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

const readme = `# .mpexp — experiment workspace

This directory is managed by the mpexp CLI.

## Structure

` + "```" + `
.mpexp/
  README.md          # this file
  manifests/         # authored scenario manifests (commit these)
  index.json         # generated index of all runs (do not edit)
  runs/
    <name>-NNN/      # one directory per run; NNN increments per name
      manifest.json  # resolved manifest snapshot (what actually ran)
      report.txt     # rendered report
      result.json    # machine-readable result (single-seed runs)
      result.json.seed<N>  # the same, per finished seed N (multi-seed runs)
      trace          # binary event trace (when enabled)
      metrics.json   # runtime metrics snapshot (when enabled)
      cells/<cell>/  # sweeps: the same artifact set per sweep cell
` + "```" + `

## Commands

- mpexp init                 — create this directory
- mpexp run <manifest.json>  — run a manifest; artifacts land under runs/
- mpexp run <scenario> ...   — flag-driven runs are captured here too
- mpexp diff <runA> <runB>   — compare two runs scalar-by-scalar
- mpexp report runs/<id>/trace — analyse a recorded trace

Manifests are validated against the live scenario registry; see
` + "`mpexp list -json`" + ` for every scenario and its typed parameters.
`

const exampleManifest = `{
  "scenario": "fig2a",
  "params": {
    "smoke": true,
    "trace": ""
  },
  "seed": 1
}
`
