package main

// Workspace and manifest glue: `mpexp init` creates a .mpexp experiment
// workspace, `mpexp run`/`sweep` accept scenario manifests (JSON files)
// next to plain scenario names and capture their artifacts into the
// workspace when one is active, and `mpexp diff` compares two captured
// runs scalar-by-scalar.

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"

	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/workspace"
)

// isManifestPath distinguishes a manifest file argument from a scenario
// name: scenario names never contain a path separator or a .json suffix.
func isManifestPath(arg string) bool {
	if strings.HasSuffix(arg, ".json") {
		return true
	}
	if !strings.ContainsRune(arg, '/') && !strings.ContainsRune(arg, os.PathSeparator) {
		return false
	}
	fi, err := os.Stat(arg)
	return err == nil && fi.Mode().IsRegular()
}

// resolveWorkspace maps the -ws flag to a workspace: "" auto-discovers
// .mpexp in the current directory (nil when absent), "none" disables
// capture, anything else must name a workspace (or its parent).
func resolveWorkspace(wsFlag string) (*workspace.Workspace, error) {
	switch wsFlag {
	case "none":
		return nil, nil
	case "":
		return workspace.Discover(".")
	default:
		return workspace.Open(wsFlag)
	}
}

// manifest turns the command line into the manifest to execute: the file
// arg names, or a fresh manifest for the scenario arg names, with every
// -set pair and every flag the user actually passed (flag.Visit) layered
// on top — the file is the default, the command line wins, and a flag
// beats a -set of the same knob. Every flag but -seed and -seeds writes a
// parameter, so a flag-driven run and its equivalent manifest file are
// the same Manifest and produce byte-identical reports and result.json
// files.
func (rf *runFlags) manifest(arg string) (*scenario.Manifest, error) {
	m := &scenario.Manifest{Name: arg, Scenario: arg}
	if isManifestPath(arg) {
		var err error
		if m, err = scenario.LoadManifest(arg); err != nil {
			return nil, err
		}
	}
	if m.Params == nil {
		m.Params = make(map[string]string)
	}
	sets, err := scenario.ParseSets(rf.sets)
	if err != nil {
		return nil, err
	}
	maps.Copy(m.Params, sets.Map())
	// on turns a bare artifact parameter on, keeping a file already named.
	on := func(key string) {
		if _, set := m.Params[key]; !set {
			m.Params[key] = ""
		}
	}
	rf.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			m.Seed = *rf.seed
		case "seeds":
			m.Seeds = *rf.seeds
		case "shards":
			m.Params["shards"] = strconv.Itoa(*rf.shards)
		case "sched":
			m.Params["sched"] = *rf.sched
		case "controller":
			m.Params["policy"] = *rf.controller
		case "smoke":
			m.Params["smoke"] = strconv.FormatBool(*rf.smoke)
		case "trace":
			m.Params["trace"] = *rf.trace
		case "metrics":
			if *rf.metrics {
				on("metrics")
			} else {
				delete(m.Params, "metrics")
			}
		case "metrics-out":
			m.Params["metrics"] = *rf.metricsOut
		case "metrics-addr":
			// Runtime-only: the endpoint serves whatever run is live, but
			// the registry only exists on a metered run.
			on("metrics")
		}
	})
	return m, nil
}

// cmdInit creates a workspace: `mpexp init [dir]` (default: the current
// directory).
func (c *cli) cmdInit(args []string) error {
	dir := "."
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		dir = args[0]
		args = args[1:]
	}
	if len(args) > 0 {
		return c.usage()
	}
	ws, err := workspace.Init(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "initialized experiment workspace at %s\n", ws.Root)
	fmt.Fprintf(c.stdout, "  - author manifests under %s (an example is included)\n", ws.ManifestDir())
	fmt.Fprintf(c.stdout, "  - `mpexp run <manifest.json>` stores artifacts under %s/runs\n", ws.Root)
	fmt.Fprintf(c.stdout, "  - `mpexp diff <runA> <runB>` compares two stored runs\n")
	return nil
}

// cmdDiff compares two workspace run directories (paths or run ids):
// `mpexp diff [-tol F] [-ws DIR] <runA> <runB>`. It exits zero only
// when every compared value matches within the tolerance.
func (c *cli) cmdDiff(args []string) error {
	fs := c.newFlagSet("diff")
	tol := fs.Float64("tol", 0, "relative tolerance: values match when |a-b| <= tol*max(|a|,|b|) (0 = exact)")
	wsFlag := fs.String("ws", "", "workspace for resolving run ids (default: .mpexp in the current directory)")
	pos, err := parsePositionalsFirst(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 2 {
		return fmt.Errorf("diff: want exactly two runs (directories or workspace run ids), got %d", len(pos))
	}
	dirs := make([]string, 2)
	for j, arg := range pos {
		if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
			dirs[j] = arg
			continue
		}
		ws, err := resolveWorkspace(*wsFlag)
		if err != nil {
			return err
		}
		if ws == nil {
			return fmt.Errorf("diff: %s is not a directory and no workspace is active to resolve it as a run id", arg)
		}
		dirs[j] = ws.RunDir(arg)
	}
	rep, err := workspace.DiffRuns(dirs[0], dirs[1], workspace.DiffOptions{RelTol: *tol})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "diff %s %s (tol %g):\n%s", pos[0], pos[1], *tol, rep.String())
	if !rep.Clean() {
		return exitError(1)
	}
	return nil
}

// listJSON is the machine-readable `mpexp list -json` dump: every
// registered scenario with its typed parameters as its factory declares
// them, the common parameters Build reads on all of them, and the
// scheduler/controller registries — enough to author and validate
// manifests against the live binary.
func (c *cli) listJSON() error {
	type entry struct {
		Name   string              `json:"name"`
		Desc   string              `json:"desc"`
		Params []scenario.ParamDoc `json:"params,omitempty"`
	}
	var out struct {
		Scenarios    []entry             `json:"scenarios"`
		CommonParams []scenario.ParamDoc `json:"common_params"`
		Schedulers   []entry             `json:"schedulers"`
		Controllers  []entry             `json:"controllers"`
	}
	for _, in := range scenario.Scenarios.Infos() {
		var own []scenario.ParamDoc
		own, out.CommonParams = scenario.ParamDocs(in.Name) // common: the same for every scenario
		out.Scenarios = append(out.Scenarios, entry{Name: in.Name, Desc: in.Desc, Params: own})
	}
	for _, in := range mptcp.Schedulers.Infos() {
		out.Schedulers = append(out.Schedulers, entry{Name: in.Name, Desc: in.Desc})
	}
	for _, in := range scenario.Policies() {
		out.Controllers = append(out.Controllers, entry{Name: in.Name, Desc: in.Desc})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = c.stdout.Write(append(buf, '\n'))
	return err
}
