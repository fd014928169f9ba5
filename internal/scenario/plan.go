package scenario

import (
	"fmt"
	"strings"

	"repro/internal/stats"
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

// Job is the per-seed job of one of the manifest's cells: Job(m.Scenario,
// c.Params), except that when the manifest runs more than one seed, a
// metrics file the cell names becomes each seed's own part, as
// result.json.seed<N> is in a workspace: the seeds run concurrently, and
// each meters its own run.
func (m *Manifest) Job(c Cell) func(seed int64) *stats.Result {
	f := c.Params.vals["metrics"]
	if m.EffectiveSeeds() < 2 || f == "" {
		return Job(m.Scenario, c.Params)
	}
	return func(seed int64) *stats.Result {
		p := c.Params.Clone()
		p.Set("metrics", PartFile(f, fmt.Sprintf("seed%d", seed)))
		return Job(m.Scenario, p)(seed)
	}
}

// CellID derives the canonical filesystem-safe identifier of a sweep
// cell from its axis overrides ("key=value" in axis order): the cell's
// workspace directory and the part its named files carry (PartFile). The
// empty cell (no axes) is "defaults".
func CellID(overrides []string) string {
	if len(overrides) == 0 {
		return "defaults"
	}
	return SafeName(strings.Join(overrides, "_"))
}

// PartFile is the one naming rule for a level that writes several files
// where one would do — a plan's cells, a spec's runs, `mpexp all`'s
// entries, a workspace's seeds: file, a dot, and the part made safe as a
// filename ("trace" and cell "loss-0.1" make "trace.loss-0.1"). An empty
// file names nothing and stays empty.
func PartFile(file, part string) string {
	if file == "" {
		return ""
	}
	return file + "." + SafeName(part)
}

// SafeName makes a label safe as a filename or a part of one: every rune
// but ASCII letters, digits, '-', '_' and '.' becomes '-'. Cell ids, file
// parts and workspace run directories are all spelled with it.
func SafeName(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, label)
}

// ArtifactKeys are the parameters that name a file a run writes; Plan
// gives each cell its own.
var ArtifactKeys = [...]string{"trace", "metrics"}

// Plan resolves the manifest, once, into the ordered cells it runs: the
// cross product of the sweep axes, the first axis varying slowest, or
// the single "defaults" cell of a manifest without a sweep block, so a
// run is a one-cell sweep.
//
// It is the only place that enumerates axes, that places each cell's
// trace and metrics files (Manifest.Job then splits a multi-seed cell's
// metrics file into one part per seed), and that states the seeds rule;
// it checks it against each cell's resolved Params, so a `-set`, a manifest
// parameter and a sweep axis all meet the same check. Every cell
// is built once, through the Build path `-set` flags take: the first
// unknown scenario or parameter key, bad value, trace/shard conflict, or
// pair of cells that would share one id aborts the plan before anything
// simulates.
//
// place names the file a cell's trace (key "trace") or metrics (key
// "metrics") is written to, for each of the two the manifest's Params
// set. named is what the manifest itself says: the parameter's value,
// made the cell's PartFile when the plan has several cells so they cannot
// overwrite each other, "" when it names none. A nil place keeps named;
// "" records in memory / into the report only. A sweep axis over either
// key sets its value as it is.
func (m *Manifest) Plan(place func(cellID, key, named string) string) ([]Cell, error) {
	if m.Scenario == "" {
		return nil, fmt.Errorf("manifest %s: missing required field \"scenario\"", m.RunName())
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
		// axis value, or two values SafeName folds together, would
		// have the later cell overwrite the earlier one's artifacts.
		if first, dup := labelOf[c.ID]; dup {
			return nil, fmt.Errorf("manifest %s: cells %q and %q both resolve to cell id %q", m.RunName(), first, c.Label, c.ID)
		}
		labelOf[c.ID] = c.Label
		p := c.Params
		for _, key := range ArtifactKeys {
			named, on := m.Params[key]
			if !on {
				continue
			}
			if len(cross) > 1 {
				named = PartFile(named, c.ID)
			}
			if place != nil {
				named = place(c.ID, key, named)
			}
			p.Set(key, named)
		}
		for _, kv := range overrides {
			k, v, _ := strings.Cut(kv, "=")
			p.Set(k, v)
		}
		// Seeds of one cell run concurrently and would all write the cell's
		// one trace. Metrics are per run, and Manifest.Job gives each seed
		// its own file.
		if seeds := m.EffectiveSeeds(); seeds > 1 {
			if _, traced := p.vals["trace"]; traced {
				return nil, fmt.Errorf("manifest %s: trace with %d seeds would write one trace from every seed concurrently; use one seed per traced run", m.RunName(), seeds)
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
	if m.Sweep != nil {
		axes = m.Sweep.Vary
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
