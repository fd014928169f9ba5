// Package stats provides the small statistics toolkit the experiment
// harness uses to reproduce the paper's figures: empirical CDFs (Figs. 2b,
// 2c, 3), quantiles, summaries, and time series (Fig. 2a), plus ASCII
// rendering for terminal output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is an accumulating collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends observations.
func (s *Sample) Add(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N reports the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations in insertion order.
func (s *Sample) Values() []float64 { return s.xs }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean reports the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min reports the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	s.sort()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[0]
}

// Max reports the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	s.sort()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[len(s.xs)-1]
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) with linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	s.sort()
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median reports the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// CDFAt reports the empirical CDF value at x.
func (s *Sample) CDFAt(x float64) float64 {
	s.sort()
	if len(s.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.xs, x)
	for i < len(s.xs) && s.xs[i] <= x {
		i++
	}
	return float64(i) / float64(len(s.xs))
}

// Summary formats n/mean/median/p90/min/max on one line.
func (s *Sample) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.4g%s median=%.4g%s p90=%.4g%s min=%.4g%s max=%.4g%s",
		s.N(), s.Mean(), unit, s.Median(), unit, s.Quantile(0.9), unit,
		s.Min(), unit, s.Max(), unit)
}

// Series is a time-ordered sequence of (t, y[, label]) points (the Fig. 2a
// sequence-number trace).
type Series struct {
	Name   string
	T      []float64
	Y      []float64
	Labels []string
}

// Append adds one point with an optional label.
func (s *Series) Append(t, y float64, label string) {
	s.T = append(s.T, t)
	s.Y = append(s.Y, y)
	s.Labels = append(s.Labels, label)
}

// RenderCDFs draws several CDFs as an ASCII plot, x from min to max across
// the samples.
func RenderCDFs(width, height int, samples map[string]*Sample) string {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 15
	}
	var lo, hi float64
	first := true
	for _, s := range samples {
		if s.N() == 0 {
			continue
		}
		if first || s.Min() < lo {
			lo = s.Min()
		}
		if first || s.Max() > hi {
			hi = s.Max()
		}
		first = false
	}
	if first || hi <= lo {
		return "(no data)\n"
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@%&"
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for si, name := range names {
		s := samples[name]
		if s.N() == 0 {
			continue
		}
		mark := marks[si%len(marks)]
		for col := 0; col < width; col++ {
			x := lo + (hi-lo)*float64(col)/float64(width-1)
			p := s.CDFAt(x)
			row := height - 1 - int(p*float64(height-1)+0.5)
			if row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}
	var b strings.Builder
	for i, row := range grid {
		p := 1.0 - float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%4.2f |%s|\n", p, string(row))
	}
	fmt.Fprintf(&b, "     %s\n", strings.Repeat("-", width+2))
	fmt.Fprintf(&b, "      %-*.4g%*.4g\n", width/2, lo, width/2, hi)
	for si, name := range names {
		fmt.Fprintf(&b, "      [%c] %s  %s\n", marks[si%len(marks)], name, samples[name].Summary(""))
	}
	return b.String()
}
