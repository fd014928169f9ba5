package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Result is the outcome of one experiment or scenario run: a
// human-readable report plus the raw distributions, time series, and
// headline scalars it was rendered from. It lives here — below both the
// scenario layer and the multi-seed runner — so every layer shares one
// result type without import cycles.
type Result struct {
	Name    string
	Report  string             // human-readable text (tables, CDFs)
	Samples map[string]*Sample // raw distributions keyed by curve name
	Series  []*Series          // time series (Fig. 2a)
	Scalars map[string]float64 // headline numbers for quick checks

	wall map[string]struct{} // scalar keys whose values depend on host wall clock
}

// MarkWallClock tags scalar keys as wall-clock-valued: their values
// depend on host speed, not simulated behaviour, so `mpexp diff` reports
// them informationally instead of comparing them. The tags travel with
// the encoded result (ResultData.Wall).
func (r *Result) MarkWallClock(keys ...string) {
	if r.wall == nil {
		r.wall = make(map[string]struct{})
	}
	for _, k := range keys {
		r.wall[k] = struct{}{}
	}
}

// WallKeys lists the wall-clock-tagged scalar keys, sorted.
func (r *Result) WallKeys() []string {
	if len(r.wall) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.wall))
	for k := range r.wall {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewResult builds an empty result.
func NewResult(name string) *Result {
	return &Result{
		Name:    name,
		Samples: make(map[string]*Sample),
		Scalars: make(map[string]float64),
	}
}

// Sample returns the named distribution, creating it on first use.
func (r *Result) Sample(name string) *Sample {
	s, ok := r.Samples[name]
	if !ok {
		s = &Sample{}
		r.Samples[name] = s
	}
	return s
}

// Printf appends formatted text to the report.
func (r *Result) Printf(format string, args ...any) {
	r.Report += fmt.Sprintf(format, args...)
}

// Section starts a named report section.
func (r *Result) Section(title string) {
	r.Printf("\n== %s ==\n", title)
}

// RenderCDFs appends the ASCII CDF plot of the named samples (missing
// names are skipped) to the report.
func (r *Result) RenderCDFs(names ...string) {
	sub := make(map[string]*Sample)
	for _, n := range names {
		if s, ok := r.Samples[n]; ok {
			sub[n] = s
		}
	}
	r.Report += RenderCDFs(64, 16, sub)
}

// Header renders the boxed title block that opens every report.
func Header(name, desc string) string {
	line := strings.Repeat("=", len(name)+4)
	return fmt.Sprintf("%s\n  %s\n%s\n%s\n", line, name, line, desc)
}
