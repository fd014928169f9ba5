package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mptcp"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// Factory builds a scenario spec from parameters. It is called once per
// seed (spec runs hold per-run workload state), so it must be cheap and
// must not retain p.
type Factory func(p *Params) (*Spec, error)

// Info describes a registered scenario for listings.
type Info struct {
	Name string
	Desc string
}

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
	descs     map[string]string
	params    map[string][]ParamDoc
}{factories: make(map[string]Factory), descs: make(map[string]string),
	params: make(map[string][]ParamDoc)}

// Register makes a scenario available by name to `mpexp run`/`sweep`/
// `list` and to Build. It panics on an empty name or a duplicate
// registration — both are programming errors, caught at init time.
func Register(name, desc string, f Factory) {
	if name == "" || f == nil {
		panic("scenario: Register with empty name or nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("scenario: %q registered twice", name))
	}
	registry.factories[name] = f
	registry.descs[name] = desc
}

// ParamDoc documents one typed parameter a scenario consumes, for
// listings (`mpexp list` prints them under the scenario) and for
// authoring manifests against the live registry (`mpexp list -json`).
// Type and Default are optional metadata: Type names the Params getter
// that reads the key ("int", "float", "bool", "string", "duration",
// "list"), Default is the value used when the key is absent.
type ParamDoc struct {
	Key     string `json:"key"`
	Type    string `json:"type,omitempty"`
	Default string `json:"default,omitempty"`
	Desc    string `json:"doc"`
}

// CommonParamDocs documents the parameters Build consumes for every
// registered scenario, so listings and manifest authors see the full
// accepted key set, not just the per-scenario ones.
func CommonParamDocs() []ParamDoc {
	return []ParamDoc{
		{Key: "sched", Type: "string", Desc: "registered packet scheduler (default: the scenario's)"},
		{Key: "policy", Type: "string", Desc: "registered subflow controller (default: the scenario's)"},
		{Key: "smoke", Type: "bool", Default: "false", Desc: "reduced sizes/durations for CI smoke runs"},
		{Key: "trace", Type: "string", Desc: "record an event trace (bare = in-memory only, value = file path)"},
		{Key: "trace_cap", Type: "int", Default: "0", Desc: "trace ring capacity per shard (0 = default)"},
		{Key: "metrics", Type: "string", Desc: "record runtime metrics (bare = report only, value = metrics.json path)"},
		{Key: "shards", Type: "int", Default: "1", Desc: "worker event loops per run (results identical at any count)"},
	}
}

// RegisterParams attaches parameter documentation to an already
// registered scenario. Registering docs for an unknown scenario is a
// programming error (the same init should Register first), caught at
// init time like a duplicate Register.
func RegisterParams(name string, docs ...ParamDoc) {
	registry.Lock()
	defer registry.Unlock()
	if _, ok := registry.factories[name]; !ok {
		panic(fmt.Sprintf("scenario: RegisterParams for unregistered scenario %q", name))
	}
	registry.params[name] = append(registry.params[name], docs...)
}

// ParamDocs returns the documented parameters of a scenario (nil when
// the scenario registered none).
func ParamDocs(name string) []ParamDoc {
	registry.RLock()
	defer registry.RUnlock()
	return append([]ParamDoc(nil), registry.params[name]...)
}

// Lookup resolves a scenario name. Unknown names list what is registered.
func Lookup(name string) (Factory, error) {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.factories[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (registered: %s)",
			name, strings.Join(namesLocked(), ", "))
	}
	return f, nil
}

// Names lists every registered scenario, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry.factories))
	for n := range registry.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scenarios lists every registered scenario with its description, sorted
// by name.
func Scenarios() []Info {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Info, 0, len(registry.factories))
	for _, n := range namesLocked() {
		out = append(out, Info{Name: n, Desc: registry.descs[n]})
	}
	return out
}

// Build resolves a name and instantiates its spec, rejecting parameters
// that failed to parse or were never consumed by the factory, and
// validating every run's scheduler and policy against their registries —
// so typos die here, before a single simulation (or a whole sweep cell's
// seed fan-out) runs.
func Build(name string, p *Params) (*Spec, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if p == nil {
		p = NewParams(nil)
	}
	sp, err := f(p)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	// Every registered scenario accepts the tracing knobs: `trace=FILE`
	// writes the binary event trace for `mpexp report` (bare `trace`
	// records and summarises without a file), `trace_cap=N` bounds each
	// ring shard. Handled here so no factory needs trace-specific code.
	// Both keys are consumed unconditionally so `trace_cap` alone never
	// trips the unknown-parameter check.
	traceFile, traceCap := p.Str("trace", ""), p.Int("trace_cap", 0)
	if p.Has("trace") {
		EnableTrace(sp, traceFile, traceCap)
	}
	// `metrics=FILE` records runtime metrics and writes the metrics.json
	// snapshot (bare `metrics` records and renders without a file).
	// Handled here so no factory needs metrics-specific code.
	metricsFile := p.Str("metrics", "")
	if p.Has("metrics") {
		EnableMetrics(sp, metricsFile)
	}
	// `shards=N` shards every run of the scenario across N worker event
	// loops (results are bit-identical at any N). Consumed here so no
	// factory needs shard-specific code. Tracing assumes one loop, so the
	// combination is rejected rather than silently corrupting traces —
	// here and nowhere else: Build is the lowest point every caller passes.
	if shards := p.Int("shards", 0); shards != 0 {
		if shards < 0 {
			return nil, fmt.Errorf("scenario %s: shards=%d: must be positive", name, shards)
		}
		if shards > 1 && p.Has("trace") {
			return nil, fmt.Errorf("scenario %s: tracing is single-shard only (got shards=%d)", name, shards)
		}
		for _, rs := range sp.Runs {
			rs.Shards = shards
		}
	}
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	if unused := p.Unused(); len(unused) > 0 {
		return nil, fmt.Errorf("scenario %s: unknown parameter(s): %s", name, strings.Join(unused, ", "))
	}
	for _, rs := range sp.Runs {
		if _, err := mptcp.LookupScheduler(rs.Sched); err != nil {
			return nil, fmt.Errorf("scenario %s: run %s: %w", name, rs.Label, err)
		}
		if _, policy := rs.controlPlane(); policy != "" {
			if _, err := smapp.LookupController(policy); err != nil {
				return nil, fmt.Errorf("scenario %s: run %s: %w", name, rs.Label, err)
			}
		}
	}
	return sp, nil
}

// Job returns a per-seed job for the multi-seed runner: each seed builds
// a fresh spec from a clone of p (specs hold per-run workload state) and
// executes it. Manifest.Plan has built p once up front to surface parameter
// errors before fanning out; inside the job they panic, which the runner
// reports as that seed's failure.
func Job(name string, p *Params) func(seed int64) *stats.Result {
	return func(seed int64) *stats.Result {
		sp, err := Build(name, p.Clone())
		if err != nil {
			panic(err)
		}
		return Execute(sp, seed)
	}
}
