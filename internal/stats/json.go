package stats

import (
	"encoding/json"
	"fmt"
)

// This file is the stable on-disk encoding of experiment results: the
// `result.json` (one simulation run) and `summary.json` (multi-seed
// aggregate) files an experiment workspace stores per run directory.
// The encoding is deterministic for a given Result — encoding/json sorts
// map keys, slices keep insertion order, and float64 values render with
// Go's shortest round-trippable representation — so two runs of the same
// scenario at the same seed produce byte-identical files, and `mpexp
// diff` can compare run directories scalar-by-scalar with confidence
// that any byte difference is a real numeric difference.

// ResultData is the serializable form of one Result. Samples flatten to
// their raw observations (insertion order); the rendered report text is
// NOT part of the encoding — the workspace stores it separately as
// report.txt, keeping result.json purely numeric.
type ResultData struct {
	Name    string               `json:"name"`
	Scalars map[string]float64   `json:"scalars,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	Series  []SeriesData         `json:"series,omitempty"`
	// Wall lists scalar keys tagged wall-clock-valued (MarkWallClock):
	// host-speed-dependent numbers diff tools must not compare.
	Wall []string `json:"wall_clock,omitempty"`
}

// SeriesData is the serializable form of one time series.
type SeriesData struct {
	Name   string    `json:"name"`
	T      []float64 `json:"t"`
	Y      []float64 `json:"y"`
	Labels []string  `json:"labels,omitempty"`
}

// Data converts a Result into its serializable form. The conversion
// copies slices, so mutating the Result afterwards does not alias the
// encoded data.
func (r *Result) Data() *ResultData {
	d := &ResultData{Name: r.Name, Wall: r.WallKeys()}
	if len(r.Scalars) > 0 {
		d.Scalars = make(map[string]float64, len(r.Scalars))
		for k, v := range r.Scalars {
			d.Scalars[k] = v
		}
	}
	if len(r.Samples) > 0 {
		d.Samples = make(map[string][]float64, len(r.Samples))
		for k, s := range r.Samples {
			d.Samples[k] = append([]float64(nil), s.Values()...)
		}
	}
	for _, s := range r.Series {
		sd := SeriesData{Name: s.Name,
			T: append([]float64(nil), s.T...),
			Y: append([]float64(nil), s.Y...)}
		for _, l := range s.Labels {
			if l != "" {
				sd.Labels = append([]string(nil), s.Labels...)
				break
			}
		}
		d.Series = append(d.Series, sd)
	}
	return d
}

// Encode renders the data as indented JSON with a trailing newline —
// the exact bytes written to result.json.
func (d *ResultData) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("stats: encode result %q: %w", d.Name, err)
	}
	return append(buf, '\n'), nil
}

// DecodeResult parses result.json bytes back into ResultData.
func DecodeResult(buf []byte) (*ResultData, error) {
	d := &ResultData{}
	if err := json.Unmarshal(buf, d); err != nil {
		return nil, fmt.Errorf("stats: decode result: %w", err)
	}
	return d, nil
}

// ScalarStats is the per-key aggregate a multi-seed run stores: the same
// five-number summary the aggregate report prints.
type ScalarStats struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// SummarizeScalar reduces one cross-seed sample to its stored summary.
func SummarizeScalar(s *Sample) ScalarStats {
	return ScalarStats{
		N:      s.N(),
		Mean:   s.Mean(),
		Median: s.Median(),
		P90:    s.Quantile(0.9),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// SummaryData is the serializable aggregate of a multi-seed run — the
// summary.json a workspace run directory stores when seeds > 1 (a single
// seed stores the full ResultData instead).
type SummaryData struct {
	Name     string                 `json:"name"`
	Seeds    int                    `json:"seeds"`
	BaseSeed int64                  `json:"base_seed"`
	Failed   int                    `json:"failed,omitempty"`
	Scalars  map[string]ScalarStats `json:"scalars,omitempty"`
	// Wall lists scalar keys tagged wall-clock-valued across the seeds
	// (union of the per-seed MarkWallClock tags).
	Wall []string `json:"wall_clock,omitempty"`
}

// Encode renders the summary as indented JSON with a trailing newline.
func (d *SummaryData) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("stats: encode summary %q: %w", d.Name, err)
	}
	return append(buf, '\n'), nil
}

// DecodeSummary parses summary.json bytes back into SummaryData.
func DecodeSummary(buf []byte) (*SummaryData, error) {
	d := &SummaryData{}
	if err := json.Unmarshal(buf, d); err != nil {
		return nil, fmt.Errorf("stats: decode summary: %w", err)
	}
	return d, nil
}
