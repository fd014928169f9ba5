// Command mpexp is the scenario-driven CLI over the paper's experiments:
// every figure is a registered scenario spec (internal/scenario), so one
// generic `run` subcommand replaces per-figure wiring, `sweep` crosses
// any scenario over schedulers × controllers × parameter axes, and
// `list` enumerates what is registered.
//
// Usage:
//
//	mpexp run <scenario|manifest.json> [-set key=val ...] [-smoke] [common flags]
//	mpexp sweep <scenario|manifest.json> [-schedulers a,b] [-controllers x,y]
//	            [-vary key=v1,v2 ...] [-set key=val ...] [common flags]
//	mpexp list [-names|-json]
//	mpexp all            (every registered scenario + the paper's
//	                      baseline variants, honouring the common flags)
//	mpexp init [dir] / mpexp diff <runA> <runB>   (experiment workspace)
//	mpexp report <tracefile ...> [-csv DIR] [-json]
//
// Every run, sweep and `all` entry has one shape: the command line (or
// a manifest file, with explicit flags layered over it) becomes a
// scenario.Manifest, and the one executor in internal/workspace runs it —
// into the active .mpexp workspace when there is one, to stdout otherwise.
//
// Any run can record an event trace (-trace FILE, or the trace=FILE
// scenario parameter): a binary log of scheduler picks, reinjections,
// DSS reassembly, per-subflow RTT/cwnd, link-level enqueue/drop/deliver
// and smapp policy decisions. `mpexp report` turns it into the
// mptcptrace-style analysis (per-subflow byte split, duplicate and
// reinjection accounting, handover gaps, link utilisation).
//
// Every run can fan one scenario out over many seeds (-seeds) on a
// bounded worker pool (-parallel), turning each figure's point estimate
// into a distribution, and can swap the packet scheduler (-sched) and
// the smart mode's subflow controller (-controller) for any registered
// policy. -cpuprofile/-memprofile FILE capture pprof profiles of any
// run's hot paths. With -seeds 1 the single run's full report prints;
// with more, per-seed scalars are aggregated into mean/median/p90/min/
// max and the raw distributions are pooled across seeds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenario specs
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workspace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// exitError is an outcome the user has already been told about — usage
// text, a flag package message, a failed seed in a report, a diff that
// found differences — so run only turns it into the exit status.
type exitError int

func (e exitError) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

// cli is one mpexp invocation: its output streams and the profiles it
// has open.
type cli struct {
	stdout, stderr io.Writer
	cpuProfile     *os.File
	memProfile     string
}

// run executes one mpexp command line and returns the process exit
// status: 0 on success, 1 when the command ran but a seed failed or a
// diff found differences, 2 on usage and input errors.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr}
	defer c.stopProfiles()
	err := c.dispatch(args)
	var exit exitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return int(exit)
	}
	fmt.Fprintln(stderr, "mpexp:", err)
	return 2
}

func (c *cli) dispatch(args []string) error {
	if len(args) == 0 {
		return c.usage()
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "list":
		return c.cmdList(args)
	case "init":
		return c.cmdInit(args)
	case "diff":
		return c.cmdDiff(args)
	case "report":
		return c.cmdReport(args)
	}
	start := time.Now()
	var err error
	switch cmd {
	case "run", "sweep":
		err = c.cmdRun(cmd, args)
	case "all":
		err = c.cmdAll(args)
	default:
		return c.usage()
	}
	// The command ran to the end, whether or not every seed succeeded.
	var exit exitError
	if err == nil || errors.As(err, &exit) && exit == 1 {
		fmt.Fprintf(c.stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
	}
	return err
}

// newFlagSet returns a flag set that reports to stderr and hands parse
// errors back instead of exiting.
func (c *cli) newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// parse runs fs over args. The flag package has already printed its
// complaint (or the -h text), so only the exit status is left to carry.
func parse(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return exitError(0)
	}
	return exitError(2)
}

// parsePositionalsFirst handles the `report`/`diff` convention:
// positional arguments come first and flags follow.
func parsePositionalsFirst(fs *flag.FlagSet, args []string) ([]string, error) {
	i := 0
	for i < len(args) && !strings.HasPrefix(args[i], "-") {
		i++
	}
	if err := parse(fs, args[i:]); err != nil {
		return nil, err
	}
	return append(args[:i:i], fs.Args()...), nil
}

// stringList collects a repeatable flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// runFlags are the flags shared by run, sweep and all.
type runFlags struct {
	fs          *flag.FlagSet
	seed        *int64
	seeds       *int
	parallel    *int
	shards      *int
	sched       *string
	controller  *string
	trace       *string
	metrics     *bool
	metricsOut  *string
	metricsAddr *string
	pprofLabels *bool
	ws          *string
	cpuprofile  *string
	memprofile  *string
	smoke       *bool
	sets        stringList // -set pairs (run and sweep only)
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	var policies []string
	for _, in := range scenario.Policies() {
		policies = append(policies, in.Name)
	}
	rf := &runFlags{
		fs:       fs,
		seed:     fs.Int64("seed", 1, "base simulation seed"),
		seeds:    fs.Int("seeds", 1, "independent seeds to run (seed, seed+1, ...)"),
		parallel: fs.Int("parallel", 0, "concurrent seeds (0 = GOMAXPROCS)"),
		shards: fs.Int("shards", 0, "worker event loops per simulation (0/1 = one loop; "+
			"results are bit-identical at any shard count)"),
		sched: fs.String("sched", "", fmt.Sprintf("packet scheduler: %s (default lowest-rtt)",
			strings.Join(mptcp.Schedulers.Names(), ", "))),
		controller: fs.String("controller", "", fmt.Sprintf("subflow controller: %s (default: the scenario's paper policy)",
			strings.Join(policies, ", "))),
		trace: fs.String("trace", "", "record an event trace to this file (inspect with `mpexp report`; "+
			"multi-run scenarios and sweeps write one file per run/cell; requires -seeds 1)"),
		metrics: fs.Bool("metrics", false, "record runtime metrics into the report "+
			"(and metrics.json in a workspace run directory; requires -seeds 1)"),
		metricsOut: fs.String("metrics-out", "", "write the metrics.json snapshot to this file "+
			"(implies -metrics; multi-run scenarios and sweeps write one file per run/cell)"),
		metricsAddr: fs.String("metrics-addr", "", "serve live metrics/expvar/pprof on this "+
			"address while the run executes (e.g. :6060; implies -metrics)"),
		pprofLabels: fs.Bool("pprof-labels", false, "label simulator goroutines with their shard in CPU profiles"),
		ws: fs.String("ws", "", "experiment workspace: a directory holding (or being) .mpexp "+
			"(default: auto-detect .mpexp in the current directory; \"none\" disables capture)"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile to this file (covers the whole run)"),
		memprofile: fs.String("memprofile", "", "write a heap profile to this file at exit"),
		smoke:      fs.Bool("smoke", false, "reduced sizes/durations (CI smoke)"),
	}
	return rf
}

// arm starts what the runtime-only flags ask for — profiles, shard
// labels, the live metrics endpoint — once per command, after flag
// parsing and before anything simulates.
func (c *cli) arm(rf *runFlags) error {
	if *rf.cpuprofile != "" {
		f, err := os.Create(*rf.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuProfile = f
	}
	c.memProfile = *rf.memprofile
	sim.SetProfileLabels(*rf.pprofLabels)
	if *rf.metricsAddr != "" {
		addr, err := metrics.Serve(*rf.metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "[live metrics on http://%s/metrics, pprof under /debug/pprof/]\n", addr)
	}
	return nil
}

// stopProfiles writes out whatever arm started, so one profile spans the
// whole command (every scenario of `mpexp all`).
func (c *cli) stopProfiles() {
	if c.cpuProfile != nil {
		pprof.StopCPUProfile()
		c.cpuProfile.Close()
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			fmt.Fprintln(c.stderr, "mpexp:", err)
			return
		}
		runtime.GC() // materialise the live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(c.stderr, "mpexp:", err)
		}
		f.Close()
	}
}

// execute hands one manifest to the executor: into the active workspace
// when there is one, otherwise straight to stdout. Validation — unknown
// names and parameters, bad values, the trace/metrics seed rules — is
// the manifest's plan, the same for every way of asking.
func (c *cli) execute(rf *runFlags, m *scenario.Manifest) error {
	opt := workspace.RunOptions{
		Parallel: *rf.parallel,
		Echo:     func(report string) { fmt.Fprint(c.stdout, report) },
		Progress: func(line string) { fmt.Fprintln(c.stderr, line) },
	}
	ws, err := resolveWorkspace(*rf.ws)
	if err != nil {
		return err
	}
	var ok bool
	if ws == nil {
		ok, err = workspace.Execute(m, opt)
	} else {
		var info *workspace.RunInfo
		if info, err = ws.Run(m, opt); err == nil {
			fmt.Fprintf(c.stderr, "[run %s stored in %s]\n", info.ID, info.Dir)
			ok = info.OK
		}
	}
	if err != nil {
		return err
	}
	if !ok {
		return exitError(1)
	}
	return nil
}

// cmdRun is `mpexp run` and `mpexp sweep`: both turn their command line
// into a manifest and execute it. sweep adds the axis flags, which
// override the manifest's axes dimension by dimension, and always runs
// as a sweep (no axes = one "defaults" cell).
func (c *cli) cmdRun(cmd string, args []string) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return c.usage()
	}
	rf := addRunFlags(c.newFlagSet(cmd))
	rf.fs.Var(&rf.sets, "set", "scenario parameter key=value (repeatable)")
	var schedulers, controllers string
	var vary stringList
	if cmd == "sweep" {
		rf.fs.StringVar(&schedulers, "schedulers", "", "comma-separated scheduler axis")
		rf.fs.StringVar(&controllers, "controllers", "", "comma-separated controller axis")
		rf.fs.Var(&vary, "vary", "parameter axis key=v1,v2,... (repeatable)")
	}
	if err := parse(rf.fs, args[1:]); err != nil {
		return err
	}
	m, err := rf.manifest(args[0])
	if err != nil {
		return err
	}
	if cmd == "sweep" && m.Sweep == nil {
		m.Sweep = &scenario.ManifestSweep{}
	}
	if schedulers != "" {
		m.Sweep.Schedulers = strings.Split(schedulers, ",")
	}
	if controllers != "" {
		m.Sweep.Controllers = strings.Split(controllers, ",")
	}
	if len(vary) > 0 {
		m.Sweep.Vary = nil
	}
	for _, kv := range vary {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return fmt.Errorf("malformed -vary %q (want key=v1,v2,...)", kv)
		}
		m.Sweep.Vary = append(m.Sweep.Vary, scenario.ManifestAxis{Key: k, Values: strings.Split(v, ",")})
	}
	if err := c.arm(rf); err != nil {
		return err
	}
	return c.execute(rf, m)
}

// cmdReport analyses trace files recorded with `run -trace` (or the
// trace=FILE scenario parameter): per-connection subflow byte split,
// reinjection and duplicate accounting, RTT/cwnd summaries, handover
// gaps, per-link utilisation, and the policy event log.
func (c *cli) cmdReport(args []string) error {
	fs := c.newFlagSet("report")
	csvDir := fs.String("csv", "", "also write the raw series as CSV files into this directory")
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON instead of text")
	files, err := parsePositionalsFirst(fs, args)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("report: no trace file given (record one with `mpexp run <scenario> -trace FILE`)")
	}
	ok := true
	for _, path := range files {
		d, err := trace.ReadFile(path)
		if err != nil {
			fmt.Fprintln(c.stderr, "mpexp:", err)
			ok = false
			continue
		}
		a := trace.Analyze(d)
		if len(files) > 1 {
			fmt.Fprintf(c.stdout, "### %s\n", path)
		}
		if *jsonOut {
			if err := a.JSON(c.stdout); err != nil {
				return err
			}
		} else {
			fmt.Fprint(c.stdout, a.Report())
		}
		if *csvDir != "" {
			dir := *csvDir
			if len(files) > 1 {
				dir = filepath.Join(dir, filepath.Base(path))
			}
			if err := a.WriteCSVs(dir); err != nil {
				return err
			}
			fmt.Fprintf(c.stderr, "[raw series written to %s]\n", dir)
		}
	}
	if !ok {
		return exitError(1)
	}
	return nil
}

func (c *cli) cmdList(args []string) error {
	fs := c.newFlagSet("list")
	names := fs.Bool("names", false, "print bare scenario names only (for scripts)")
	jsonOut := fs.Bool("json", false, "machine-readable dump: scenarios, typed parameter docs, schedulers, controllers")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *names {
		for _, n := range scenario.Scenarios.Names() {
			fmt.Fprintln(c.stdout, n)
		}
		return nil
	}
	if *jsonOut {
		return c.listJSON()
	}
	fmt.Fprintln(c.stdout, "scenarios (mpexp run <name>):")
	for _, in := range scenario.Scenarios.Infos() {
		fmt.Fprintf(c.stdout, "  %-12s %s\n", in.Name, in.Desc)
		own, _ := scenario.ParamDocs(in.Name)
		for _, d := range own {
			fmt.Fprintf(c.stdout, "  %-12s   -set %-14s %s\n", "", d.Key, d.Desc)
		}
	}
	fmt.Fprintln(c.stdout, "\npacket schedulers (-sched):")
	for _, in := range mptcp.Schedulers.Infos() {
		fmt.Fprintf(c.stdout, "  %-12s %s\n", in.Name, in.Desc)
	}
	fmt.Fprintln(c.stdout, "\nsubflow controllers (-controller):")
	for _, in := range scenario.Policies() {
		fmt.Fprintf(c.stdout, "  %-12s %s\n", in.Name, in.Desc)
	}
	return nil
}

// allVariants names the boolean parameter that turns a scenario into the
// paper's baseline run; `mpexp all` adds it next to the default
// configuration as "<scenario>-<parameter>".
var allVariants = map[string]string{"fig2a": "baseline", "fig3": "stressed", "longlived": "plain"}

func (c *cli) cmdAll(args []string) error {
	rf := addRunFlags(c.newFlagSet("all"))
	if err := parse(rf.fs, args); err != nil {
		return err
	}
	if err := c.arm(rf); err != nil {
		return err
	}
	// One failed figure must not swallow the rest: every entry runs, and
	// the exit status is decided after the last one.
	failed := false
	for _, name := range scenario.Scenarios.Names() {
		variants := []string{""} // the default configuration
		if v, ok := allVariants[name]; ok {
			variants = append(variants, v)
		}
		for _, variant := range variants {
			m, err := rf.manifest(name)
			if err != nil {
				return err
			}
			if variant != "" {
				m.Name = name + "-" + variant
				m.Params[variant] = "true"
			}
			// One trace/metrics file per entry, so the sequential runs
			// don't overwrite each other's output.
			for _, key := range scenario.ArtifactKeys {
				if f := m.Params[key]; f != "" {
					m.Params[key] = scenario.PartFile(f, m.Name)
				}
			}
			if err := c.execute(rf, m); err != nil {
				var exit exitError
				if !errors.As(err, &exit) {
					fmt.Fprintf(c.stderr, "mpexp: %s: %v\n", m.Name, err)
				}
				failed = true
			}
		}
	}
	if failed {
		return exitError(1)
	}
	return nil
}

func (c *cli) usage() error {
	fmt.Fprintln(c.stderr, `usage: mpexp <run|sweep|init|diff|list|all|report> [flags]
Reproduces the figures of "SMAPP: Towards Smart Multipath TCP-enabled
APPlications" (CoNEXT'15) plus a scale stress workload, all expressed as
registered scenario specs.

  mpexp run <scenario|manifest.json> [-set key=val ...] [-smoke]
  mpexp sweep <scenario|manifest.json> [-schedulers a,b] [-controllers x,y]
              [-vary k=v1,v2]
  mpexp init [dir]                 create a .mpexp experiment workspace
  mpexp diff <runA> <runB> [-tol F] [-ws DIR]
  mpexp list [-names|-json]
  mpexp all
  mpexp report <tracefile ...> [-csv DIR] [-json]

Common flags: -seed N -seeds N -parallel N -shards N -sched NAME
-controller NAME -trace F -metrics -metrics-out F -metrics-addr ADDR
-ws DIR -cpuprofile F -memprofile F. Run a subcommand with -h for its
flags; `+"`mpexp list`"+` shows every registered scenario, scheduler, and
controller. With a .mpexp workspace in the current directory (create one
with `+"`mpexp init`"+`), run/sweep store their results, reports, traces, and
resolved manifests under .mpexp/runs/, and `+"`mpexp diff`"+` compares two
stored runs scalar-by-scalar.`)
	return exitError(2)
}
