package stats

import (
	"encoding/json"
	"fmt"
)

// This file is the stable on-disk encoding of experiment results: the
// `result.json` an experiment workspace stores for one simulated seed —
// in the run directory for a single seed, as `result.json.seed<N>` for
// seed N of several (the cross-seed aggregate is the rendered
// report.txt). The encoding is deterministic for a given Result —
// encoding/json sorts map keys, slices keep insertion order, and float64
// values render with Go's shortest round-trippable representation — so
// two runs of the same scenario at the same seed produce byte-identical
// files, and `mpexp diff` can compare run directories seed by seed and
// scalar by scalar with confidence that any byte difference is a real
// numeric difference.

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
