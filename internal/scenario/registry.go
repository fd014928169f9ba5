package scenario

import (
	"fmt"
	"strings"

	"repro/internal/mptcp"
	"repro/internal/registry"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// Factory builds a scenario spec from parameters. It is called once per
// seed (spec runs hold per-run workload state), so it must be cheap and
// must not retain p.
type Factory func(p *Params) (*Spec, error)

// Scenarios is the scenario table: a scenario registered here is
// available by name to `mpexp run`/`sweep`/`list` and to Build.
var Scenarios = registry.New[Factory]("scenario", "scenario")

// ParamDocs derives a scenario's parameter listing from the code that
// reads the parameters: it builds the scenario once, with nothing set,
// over a Params that records every getter call. own are the factory's
// declarations in its read order, common the keys Build itself reads for
// every scenario. Both are nil for an unknown scenario. Only listings pay
// for this; a normal Build records nothing.
func ParamDocs(name string) (own, common []ParamDoc) {
	p := NewParams(nil)
	p.docs = &paramDocs{}
	// The spec is not wanted, and a Build that fails (an unknown name, a
	// factory rejecting its own defaults) has still recorded what it read.
	_, _ = Build(name, p)
	return p.docs.own, p.docs.common
}

// Build resolves a name and instantiates its spec, rejecting parameters
// that failed to parse or were never consumed by the factory, and
// validating every run's scheduler and policy against their registries —
// so typos die here, before a single simulation (or a whole sweep cell's
// seed fan-out) runs.
func Build(name string, p *Params) (*Spec, error) {
	f, err := Scenarios.Lookup(name)
	if err != nil {
		return nil, err
	}
	if p == nil {
		p = NewParams(nil)
	}
	// Smoke is resolved here, once and before any key is read, so every
	// getter applies one rule: an explicit value beats the smoke size.
	p.smoke = p.Bool("smoke", false, "reduced sizes/durations for CI smoke runs")
	p.own = true
	sp, err := f(p)
	p.own = false
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	// Every registered scenario accepts the tracing knobs: `trace=FILE`
	// writes the binary event trace for `mpexp report` (bare `trace`
	// records and summarises without a file), `trace_cap=N` bounds each
	// ring shard. Handled here so no factory needs trace-specific code.
	// Both keys are consumed unconditionally so `trace_cap` alone never
	// trips the unknown-parameter check.
	traceFile := p.Str("trace", "", "record an event trace (bare = in-memory only, value = file path)")
	traceCap := p.Int("trace_cap", 0, "trace ring capacity per shard (0 = default)")
	if p.Has("trace") {
		EnableTrace(sp, traceFile, traceCap)
	}
	// `metrics=FILE` records runtime metrics and writes the metrics.json
	// snapshot (bare `metrics` records and renders without a file).
	// Handled here so no factory needs metrics-specific code.
	metricsFile := p.Str("metrics", "", "record runtime metrics (bare = report only, value = metrics.json path)")
	if p.Has("metrics") {
		EnableMetrics(sp, metricsFile)
	}
	// `shards=N` shards every run of the scenario across N worker event
	// loops (results are bit-identical at any N). Consumed here so no
	// factory needs shard-specific code. Tracing assumes one loop, so the
	// combination is rejected rather than silently corrupting traces —
	// here and nowhere else: Build is the lowest point every caller passes.
	if shards := p.Int("shards", 1, "worker event loops per run (results identical at any count)"); shards != 1 {
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
		if _, err := smapp.LookupPolicy(rs.Policy); err != nil {
			return nil, fmt.Errorf("scenario %s: run %s: %w", name, rs.Label, err)
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
