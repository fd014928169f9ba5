package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Cell is one point of a manifest's plan: one scenario configuration,
// run across the manifest's seeds.
type Cell struct {
	// ID is the filesystem-safe identifier (CellID of the axis overrides):
	// the cell's directory in a workspace, the suffix of its named files.
	ID string
	// Label is the overrides as reports print them ("sched=x loss=0.1").
	Label string
	// Params is everything Build consumes for the cell, fully resolved;
	// Plan has built it once, so Job cannot fail on it.
	Params *Params
}

// CellID derives the canonical filesystem-safe identifier of a sweep
// cell from its axis overrides ("key=value" in axis order). It is THE
// one place cell naming happens: per-cell trace-file suffixes and
// workspace cell directories both derive from it, so the two can never
// skew. The empty cell (no axes) is "defaults".
func CellID(overrides []string) string {
	if len(overrides) == 0 {
		return "defaults"
	}
	return sanitizeLabel(strings.Join(overrides, "_"))
}

// reservedParamKeys are manifest fields that must not be smuggled in as
// scenario parameters: the dedicated fields exist so Plan can resolve
// them (file placement, shard plumbing) uniformly.
var reservedParamKeys = []string{"trace", "trace_cap", "shards", "metrics"}

// Plan resolves the manifest, once, into the ordered cells it runs: the
// cross product of the sweep axes — Schedulers (as "sched"), then
// Controllers (as "policy"), then Vary, the first axis varying slowest —
// or the single "defaults" cell of a manifest without a sweep block, so a
// run is a one-cell sweep.
//
// It is the only place that enumerates axes, that turns the manifest's
// Shards/Trace/TraceFile/TraceCap/Metrics/MetricsFile fields into the
// keys Build consumes, and that states the two seeds rules; it checks
// them against each cell's resolved Params, so a flag, a `-set`, a
// manifest field and a sweep axis all meet the same check. Every cell is
// built once, through the Build path `-set` flags take: the first unknown
// scenario or parameter key, bad value, trace/shard conflict, or pair of
// cells that would share one id aborts the plan before anything simulates.
//
// place names the file a cell's trace (key "trace") or metrics (key
// "metrics") is written to. named is what the manifest itself says: its
// TraceFile/MetricsFile, suffixed with the cell id when the plan has
// several cells so they cannot overwrite each other, "" when it names
// none. A nil place keeps named; "" records in memory / into the report
// only.
func (m *Manifest) Plan(place func(cellID, key, named string) string) ([]Cell, error) {
	if m.Scenario == "" {
		return nil, fmt.Errorf("manifest %s: missing required field \"scenario\"", m.RunName())
	}
	for _, k := range reservedParamKeys {
		if _, clash := m.Params[k]; clash {
			return nil, fmt.Errorf("manifest %s: parameter %q is reserved; use the top-level %q field", m.RunName(), k, k)
		}
	}
	if m.Seed < 0 {
		return nil, fmt.Errorf("manifest %s: seed %d: must be non-negative", m.RunName(), m.Seed)
	}
	if m.Seeds < 0 {
		return nil, fmt.Errorf("manifest %s: seeds %d: must be non-negative", m.RunName(), m.Seeds)
	}
	cross, err := m.overrides()
	if err != nil {
		return nil, fmt.Errorf("manifest %s: %w", m.RunName(), err)
	}
	cells := make([]Cell, len(cross))
	labelOf := make(map[string]string, len(cross))
	for i, overrides := range cross {
		c := Cell{ID: CellID(overrides), Label: strings.Join(overrides, " "), Params: NewParams(m.Params)}
		if c.Label == "" {
			c.Label = "(defaults)"
		}
		// The id names the cell's directory and file suffixes: a repeated
		// axis value, or two values sanitizeLabel folds together, would
		// have the later cell overwrite the earlier one's artifacts.
		if first, dup := labelOf[c.ID]; dup {
			return nil, fmt.Errorf("manifest %s: cells %q and %q both resolve to cell id %q", m.RunName(), first, c.Label, c.ID)
		}
		labelOf[c.ID] = c.Label
		p := c.Params
		if m.Shards != 0 {
			p.Set("shards", strconv.Itoa(m.Shards))
		}
		artifact := func(key, named string) {
			if named != "" && len(cross) > 1 {
				named += "." + c.ID
			}
			if place != nil {
				named = place(c.ID, key, named)
			}
			p.Set(key, named)
		}
		if m.Trace {
			artifact("trace", m.TraceFile)
			if m.TraceCap != 0 {
				p.Set("trace_cap", strconv.Itoa(m.TraceCap))
			}
		}
		if m.Metrics {
			artifact("metrics", m.MetricsFile)
		}
		for _, kv := range overrides {
			k, v, _ := strings.Cut(kv, "=")
			p.Set(k, v)
		}
		// Seeds of one cell run concurrently and would all write the cell's
		// one trace; metrics read process-wide pool counters, file or not.
		if seeds := m.EffectiveSeeds(); seeds > 1 {
			if _, traced := p.vals["trace"]; traced {
				return nil, fmt.Errorf("manifest %s: trace with %d seeds would write one trace from every seed concurrently; use one seed per traced run", m.RunName(), seeds)
			}
			if _, metered := p.vals["metrics"]; metered {
				return nil, fmt.Errorf("manifest %s: metrics with %d seeds would mix the process-wide pool counters across concurrent seeds; use one seed per metered run", m.RunName(), seeds)
			}
		}
		if _, err := Build(m.Scenario, p.Clone()); err != nil {
			return nil, err
		}
		cells[i] = c
	}
	return cells, nil
}

// overrides enumerates the cross product of the manifest's axes as each
// cell's "key=value" overrides; a manifest without axes has the one empty
// cell.
func (m *Manifest) overrides() ([][]string, error) {
	var axes []ManifestAxis
	if sw := m.Sweep; sw != nil {
		if len(sw.Schedulers) > 0 {
			axes = append(axes, ManifestAxis{Key: "sched", Values: sw.Schedulers})
		}
		if len(sw.Controllers) > 0 {
			axes = append(axes, ManifestAxis{Key: "policy", Values: sw.Controllers})
		}
		axes = append(axes, sw.Vary...)
	}
	cells := [][]string{nil}
	for _, ax := range axes {
		if ax.Key == "" || len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q has no values", ax.Key)
		}
		var next [][]string
		for _, base := range cells {
			for _, v := range ax.Values {
				next = append(next, append(append([]string(nil), base...), ax.Key+"="+v))
			}
		}
		cells = next
	}
	return cells, nil
}
