// Command mpexp is the scenario-driven CLI over the paper's experiments:
// every figure is a registered scenario spec (internal/scenario), so one
// generic `run` subcommand replaces per-figure wiring, `sweep` crosses
// any scenario over parameter axes, and `list` enumerates what is
// registered.
//
// Usage:
//
//	mpexp run <scenario|manifest.json> [-set key=val ...] [common flags]
//	mpexp sweep <scenario|manifest.json> [-vary key=v1,v2 ...]
//	            [-set key=val ...] [common flags]
//	mpexp list [-names|-json]
//	mpexp all [-set key=val ...] [common flags]   (every registered
//	            scenario + the paper's baseline variants)
//	mpexp init [dir] / mpexp diff <runA> <runB>   (experiment workspace)
//	mpexp report <tracefile ...> [-csv DIR] [-json]
//
// Every scenario knob is a parameter with one spelling: `-set key=val`
// on the command line, the same key in a manifest's params, or a sweep
// axis (`-vary key=v1,v2`, a manifest's sweep.vary). The packet
// scheduler is `sched`, the subflow controller `policy`; `smoke`,
// `shards`, `trace`, `trace_cap` and `metrics` are read by every
// scenario. A bare `-set key` stores the empty value: true for a boolean
// knob, "record, naming no file" for trace and metrics. The flags are
// only what no scenario reads: -seed, -seeds, -parallel, -ws and the
// -cpuprofile/-memprofile pprof captures.
//
// Every run, sweep and `all` entry has one shape: the command line (or
// a manifest file, with explicit flags layered over it) becomes a
// scenario.Manifest, and the one executor in internal/workspace runs it —
// into the active .mpexp workspace when there is one, to stdout otherwise.
//
// Any run can record an event trace (-set trace=FILE): a binary log of
// scheduler picks, reinjections, DSS reassembly, per-subflow RTT/cwnd,
// link-level enqueue/drop/deliver and smapp policy decisions. `mpexp
// report` turns it into the mptcptrace-style analysis (per-subflow byte
// split, duplicate and reinjection accounting, handover gaps, link
// utilisation).
//
// Every run can fan one scenario out over many seeds (-seeds) on a
// bounded worker pool (-parallel), turning each figure's point estimate
// into a distribution. With -seeds 1 the single run's full report
// prints; with more, per-seed scalars are aggregated into mean/median/
// p90/min/max and the raw distributions are pooled across seeds.
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
	"slices"
	"strings"
	"sync"
	"time"

	_ "repro/internal/experiments" // registers the paper's scenario specs
	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/smapp"
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

// runFlags are the flags of run, sweep and all: what no scenario reads.
// Every scenario knob is a -set parameter.
type runFlags struct {
	fs         *flag.FlagSet
	seed       *int64
	seeds      *int
	parallel   *int
	ws         *string
	cpuprofile *string
	memprofile *string
	sets       stringList
	vary       stringList // sweep only
}

// newRunFlags declares the flags of cmd, one of run, sweep and all.
func (c *cli) newRunFlags(cmd string) *runFlags {
	fs := c.newFlagSet(cmd)
	rf := &runFlags{
		fs:       fs,
		seed:     fs.Int64("seed", 1, "base simulation seed"),
		seeds:    fs.Int("seeds", 1, "independent seeds to run (seed, seed+1, ...)"),
		parallel: fs.Int("parallel", 0, "concurrent seeds (0 = GOMAXPROCS)"),
		ws: fs.String("ws", "", "experiment workspace: a directory holding (or being) .mpexp "+
			"(default: auto-detect .mpexp in the current directory; \"none\" disables capture)"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile to this file (covers the whole run)"),
		memprofile: fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
	fs.Var(&rf.sets, "set", "scenario parameter key=value, or a bare key for the empty value "+
		"(repeatable; mpexp list names every key)")
	if cmd == "sweep" {
		fs.Var(&rf.vary, "vary", "parameter axis key=v1,v2,... (repeatable; the first varies slowest)")
	}
	return rf
}

// arm starts the profiles the flags ask for, once per command, after flag
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
	// Progress lines come from the runner's worker goroutines, and stderr
	// may be any writer: one line at a time.
	var progress sync.Mutex
	opt := workspace.RunOptions{
		Parallel: *rf.parallel,
		Echo:     func(report string) { fmt.Fprint(c.stdout, report) },
		Progress: func(line string) {
			progress.Lock()
			defer progress.Unlock()
			fmt.Fprintln(c.stderr, line)
		},
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
// into a manifest and execute it. sweep adds -vary, whose axes replace
// the manifest's axis of the same key (or follow its axes), and always
// runs as a sweep (no axes = one "defaults" cell).
func (c *cli) cmdRun(cmd string, args []string) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return c.usage()
	}
	rf := c.newRunFlags(cmd)
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
	for _, kv := range rf.vary {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return fmt.Errorf("malformed -vary %q (want key=v1,v2,...)", kv)
		}
		ax := scenario.ManifestAxis{Key: k, Values: strings.Split(v, ",")}
		if i := slices.IndexFunc(m.Sweep.Vary, func(a scenario.ManifestAxis) bool { return a.Key == k }); i >= 0 {
			m.Sweep.Vary[i] = ax
		} else {
			m.Sweep.Vary = append(m.Sweep.Vary, ax)
		}
	}
	if err := c.arm(rf); err != nil {
		return err
	}
	return c.execute(rf, m)
}

// cmdReport analyses trace files recorded with the trace=FILE scenario
// parameter: per-connection subflow byte split,
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
		return fmt.Errorf("report: no trace file given (record one with `mpexp run <scenario> -set trace=FILE`)")
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
	fmt.Fprintln(c.stdout, "\npacket schedulers (-set sched=NAME):")
	for _, in := range mptcp.Schedulers.Infos() {
		fmt.Fprintf(c.stdout, "  %-12s %s\n", in.Name, in.Desc)
	}
	fmt.Fprintln(c.stdout, "\npath managers (-set policy=NAME):")
	for _, in := range smapp.Policies() {
		fmt.Fprintf(c.stdout, "  %-17s %s\n", in.Name, in.Desc)
	}
	return nil
}

// allVariants names the parameter setting that turns a scenario into the
// paper's baseline run; `mpexp all` runs it next to the default
// configuration as "<scenario>-<name>".
var allVariants = map[string]struct{ name, key, val string }{
	"fig2a":     {"baseline", "baseline", "true"},
	"fig3":      {"stressed", "stressed", "true"},
	"longlived": {"plain", "policy", ""}, // the nil policy
}

func (c *cli) cmdAll(args []string) error {
	rf := c.newRunFlags("all")
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
		variants := []struct{ name, key, val string }{{}} // the default configuration
		if v, ok := allVariants[name]; ok {
			variants = append(variants, v)
		}
		for _, v := range variants {
			m, err := rf.manifest(name)
			if err != nil {
				return err
			}
			if v.name != "" {
				m.Name = name + "-" + v.name
				m.Params[v.key] = v.val
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

  mpexp run <scenario|manifest.json> [-set key=val ...]
  mpexp sweep <scenario|manifest.json> [-vary key=v1,v2 ...] [-set key=val ...]
  mpexp all [-set key=val ...]
  mpexp init [dir]                 create a .mpexp experiment workspace
  mpexp diff <runA> <runB> [-tol F] [-ws DIR]
  mpexp list [-names|-json]
  mpexp report <tracefile ...> [-csv DIR] [-json]

run, sweep and all also take -seed N -seeds N -parallel N -ws DIR
-cpuprofile F -memprofile F. Every scenario knob is a -set parameter:
-set sched=NAME, -set policy=NAME, -set smoke, -set shards=N, -set
trace=F, -set metrics[=F] ...; `+"`mpexp list`"+` shows every registered
scenario with its keys, and every scheduler and controller. With a .mpexp
workspace in the current directory (create one with `+"`mpexp init`"+`),
run/sweep store their results, reports, traces, and resolved manifests
under .mpexp/runs/, and `+"`mpexp diff`"+` compares two stored runs
scalar-by-scalar.`)
	return exitError(2)
}
