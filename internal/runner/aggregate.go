package runner

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// ScalarSummary gathers each headline scalar across every successful seed
// into one stats.Sample per key — the distribution the aggregate report
// summarises as mean/median/p90/min/max.
func (m *Multi) ScalarSummary() map[string]*stats.Sample {
	out := make(map[string]*stats.Sample)
	for _, sr := range m.PerSeed {
		if sr.Err != nil || sr.Result == nil {
			continue
		}
		for k, v := range sr.Result.Scalars {
			s, ok := out[k]
			if !ok {
				s = &stats.Sample{}
				out[k] = s
			}
			s.Add(v)
		}
	}
	return out
}

// WallKeys unions the wall-clock scalar tags of every successful seed
// (stats.Result.MarkWallClock), sorted — the scalars a sweep report
// leaves out.
func (m *Multi) WallKeys() []string {
	set := make(map[string]struct{})
	for _, sr := range m.PerSeed {
		if sr.Err != nil || sr.Result == nil {
			continue
		}
		for _, k := range sr.Result.WallKeys() {
			set[k] = struct{}{}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MergedSamples pools each named raw distribution across every successful
// seed, so a figure's CDF can be drawn over all seeds' observations
// instead of a single run's.
func (m *Multi) MergedSamples() map[string]*stats.Sample {
	out := make(map[string]*stats.Sample)
	for _, sr := range m.PerSeed {
		if sr.Err != nil || sr.Result == nil {
			continue
		}
		for name, s := range sr.Result.Samples {
			merged, ok := out[name]
			if !ok {
				merged = &stats.Sample{}
				out[name] = merged
			}
			merged.Add(s.Values()...)
		}
	}
	return out
}

// Report renders the aggregate view: run shape, the pooled CDFs of every
// raw distribution, one summary row per headline scalar, and any failed
// seeds.
func (m *Multi) Report() string {
	var b strings.Builder
	ok := 0
	for _, sr := range m.PerSeed {
		if sr.Err == nil {
			ok++
		}
	}
	fmt.Fprintf(&b, "\n===== %s × %d seeds (base %d, parallel %d) =====\n",
		m.Name, m.Config.Seeds, m.Config.BaseSeed, m.Config.Parallel)

	if merged := m.MergedSamples(); len(merged) > 0 {
		fmt.Fprintf(&b, "\n== pooled distributions over %d seeds ==\n", ok)
		b.WriteString(stats.RenderCDFs(64, 16, merged))
	}

	summary := m.ScalarSummary()
	keys := make([]string, 0, len(summary))
	width := len("scalar")
	for k := range summary {
		keys = append(keys, k)
		if len(k) > width {
			width = len(k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "\n== scalars across seeds ==\n")
	fmt.Fprintf(&b, "%-*s %5s %10s %10s %10s %10s %10s\n",
		width, "scalar", "n", "mean", "median", "p90", "min", "max")
	for _, k := range keys {
		s := summary[k]
		fmt.Fprintf(&b, "%-*s %5d %10.4g %10.4g %10.4g %10.4g %10.4g\n",
			width, k, s.N(), s.Mean(), s.Median(), s.Quantile(0.9), s.Min(), s.Max())
	}

	if failed := m.Failed(); len(failed) > 0 {
		fmt.Fprintf(&b, "\n== failed seeds ==\n")
		for _, sr := range failed {
			fmt.Fprintf(&b, "seed %d: %v\n", sr.Seed, sr.Err)
		}
	}
	return b.String()
}
