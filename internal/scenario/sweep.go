package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/stats"
)

// Axis is one sweep dimension: a parameter key and the values it walks.
type Axis struct {
	Key    string
	Values []string
}

// SweepConfig crosses a scenario over schedulers × controllers × any
// parameter axes, running every cell across Seeds independent seeds on
// the shared multi-seed runner.
type SweepConfig struct {
	Scenario string
	// Base parameters applied to every cell (nil = none).
	Base *Params
	// Schedulers and Controllers are the two conventional axes, mapped
	// onto the "sched" and "policy" parameters. Empty = the scenario's
	// default (one cell on that dimension).
	Schedulers  []string
	Controllers []string
	// Axes are additional parameter dimensions (e.g. loss=0.1,0.3).
	Axes []Axis

	Seeds    int
	BaseSeed int64
	Parallel int
	// OnCell observes each finished cell (progress output).
	OnCell func(c *Cell)
	// TraceFile, when non-nil, names each cell's trace file from its
	// CellID (an experiment workspace points it into the cell's run
	// directory); it overrides the trace suffixing derived from a
	// "trace" key in Base. Returning "" leaves the cell untraced.
	TraceFile func(cellID string) string
	// MetricsFile, when non-nil, names each cell's metrics.json the same
	// way; it overrides the metrics suffixing derived from a "metrics"
	// key in Base. Returning "" leaves the cell unmetered.
	MetricsFile func(cellID string) string
}

// Cell is one point of the cross product.
type Cell struct {
	Label     string
	ID        string   // filesystem-safe identifier (CellID of Overrides)
	Overrides []string // "key=value" in axis order
	Multi     *runner.Multi
}

// CellID derives the canonical filesystem-safe identifier of a sweep
// cell from its axis overrides ("key=value" in axis order). It is THE
// one place cell naming happens: per-cell trace-file suffixes and
// workspace cell directories both derive from it, so the two can never
// skew. The empty cell (a sweep with no axes) is "defaults".
func CellID(overrides []string) string {
	if len(overrides) == 0 {
		return "defaults"
	}
	return sanitizeLabel(strings.Join(overrides, "_"))
}

// SweepResult collects every cell of one sweep.
type SweepResult struct {
	Scenario string
	Config   SweepConfig
	Cells    []*Cell
}

// Sweep executes the cross product. Cells run sequentially (each cell
// parallelises across its seeds); the first invalid cell aborts with an
// error before any simulation runs.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	cells, err := cfg.cells()
	if err != nil {
		return nil, err
	}
	sr := &SweepResult{Scenario: cfg.Scenario, Config: cfg}
	// A trace file in the base parameters fans out per cell (suffixed
	// with the cell label) so sequential cells cannot overwrite each
	// other; within a cell the seeds run concurrently, so a traced
	// sweep must stay single-seed (bare `trace` — no file — is safe at
	// any seed count).
	traceFile := cfg.Base.Clone().Str("trace", "")
	if traceFile != "" && cfg.Seeds > 1 {
		return nil, fmt.Errorf("scenario: trace=%s with %d seeds would write one file from every seed concurrently; use one seed per traced sweep", traceFile, cfg.Seeds)
	}
	if cfg.TraceFile != nil && cfg.Seeds > 1 {
		return nil, fmt.Errorf("scenario: per-cell trace files with %d seeds would write one file from every seed concurrently; use one seed per traced sweep", cfg.Seeds)
	}
	// Metrics are per-run but the object pools are process-wide, so
	// concurrent seeds would bleed into each other's pool deltas: a
	// metered sweep must stay single-seed, file or not.
	metered := cfg.Base.Clone().Has("metrics") || cfg.MetricsFile != nil
	if metered && cfg.Seeds > 1 {
		return nil, fmt.Errorf("scenario: metrics with %d seeds would mix the process-wide pool counters across concurrent seeds; use one seed per metered sweep", cfg.Seeds)
	}
	metricsFile := cfg.Base.Clone().Str("metrics", "")
	// Validate every cell before simulating anything.
	params := make([]*Params, len(cells))
	for i, overrides := range cells {
		p := cfg.cellParams(overrides)
		switch {
		case cfg.TraceFile != nil:
			if f := cfg.TraceFile(CellID(overrides)); f != "" {
				p.Set("trace", f)
			}
		case traceFile != "" && len(cells) > 1:
			p.Set("trace", traceFile+"."+CellID(overrides))
		}
		switch {
		case cfg.MetricsFile != nil:
			if f := cfg.MetricsFile(CellID(overrides)); f != "" {
				p.Set("metrics", f)
			}
		case metricsFile != "" && len(cells) > 1:
			p.Set("metrics", metricsFile+"."+CellID(overrides))
		}
		if _, err := Build(cfg.Scenario, p.Clone()); err != nil {
			return nil, err
		}
		params[i] = p
	}
	for i, overrides := range cells {
		label := strings.Join(overrides, " ")
		if label == "" {
			label = "(defaults)"
		}
		m := runner.Run(cfg.Scenario+" "+label, runner.Config{
			Seeds:    cfg.Seeds,
			BaseSeed: cfg.BaseSeed,
			Parallel: cfg.Parallel,
		}, Job(cfg.Scenario, params[i]))
		cell := &Cell{Label: label, ID: CellID(overrides), Overrides: overrides, Multi: m}
		sr.Cells = append(sr.Cells, cell)
		if cfg.OnCell != nil {
			cfg.OnCell(cell)
		}
	}
	return sr, nil
}

// cells enumerates the cross product as each cell's "key=value"
// overrides: Schedulers (as "sched"), then Controllers (as "policy"),
// then Axes, the first axis varying slowest. It is the one place the
// axes are assembled, so manifest validation, execution and workspace
// cell directories cannot disagree on cell order or ids.
func (cfg SweepConfig) cells() ([][]string, error) {
	axes := make([]Axis, 0, 2+len(cfg.Axes))
	if len(cfg.Schedulers) > 0 {
		axes = append(axes, Axis{Key: "sched", Values: cfg.Schedulers})
	}
	if len(cfg.Controllers) > 0 {
		axes = append(axes, Axis{Key: "policy", Values: cfg.Controllers})
	}
	axes = append(axes, cfg.Axes...)
	cells := [][]string{nil}
	for _, ax := range axes {
		if ax.Key == "" || len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q has no values", ax.Key)
		}
		var next [][]string
		for _, base := range cells {
			for _, v := range ax.Values {
				cell := append(append([]string(nil), base...), ax.Key+"="+v)
				next = append(next, cell)
			}
		}
		cells = next
	}
	return cells, nil
}

// cellParams returns a copy of Base with one cell's overrides applied.
func (cfg SweepConfig) cellParams(overrides []string) *Params {
	p := cfg.Base.Clone()
	for _, kv := range overrides {
		k, v, _ := strings.Cut(kv, "=")
		p.Set(k, v)
	}
	return p
}

// Report renders the sweep: one scalar-summary block per cell, then a
// cross-cell comparison table over the scalars every cell shares.
func (sr *SweepResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "===== sweep: %s × %d cells × %d seeds =====\n",
		sr.Scenario, len(sr.Cells), sr.Config.Seeds)

	// Aggregate each cell once; the scalars present in every cell feed
	// the comparison table.
	summaries := make([]map[string]*stats.Sample, len(sr.Cells))
	shared := map[string]int{}
	for i, c := range sr.Cells {
		summaries[i] = c.Multi.ScalarSummary()
		for k := range summaries[i] {
			shared[k]++
		}
	}
	var keys []string
	for k, n := range shared {
		if n == len(sr.Cells) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	for i, c := range sr.Cells {
		fmt.Fprintf(&b, "\n-- %s --\n", c.Label)
		for _, k := range keys {
			fmt.Fprintf(&b, "   %-32s mean %12.4f\n", k, summaries[i][k].Mean())
		}
		if failed := c.Multi.Failed(); len(failed) > 0 {
			fmt.Fprintf(&b, "   FAILED seeds: %d (first: %v)\n", len(failed), failed[0].Err)
		}
	}

	if len(keys) > 0 && len(sr.Cells) > 1 {
		fmt.Fprintf(&b, "\n== cell comparison (means over %d seeds) ==\n", sr.Config.Seeds)
		width := 0
		for _, c := range sr.Cells {
			if len(c.Label) > width {
				width = len(c.Label)
			}
		}
		for _, k := range keys {
			fmt.Fprintf(&b, "%s:\n", k)
			for i, c := range sr.Cells {
				fmt.Fprintf(&b, "   %-*s %12.4f\n", width, c.Label, summaries[i][k].Mean())
			}
		}
	}
	return b.String()
}
