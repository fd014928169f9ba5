package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method — the same numbers Python's
// statistics.quantiles(xs, n=4) gives, which is what the benchmark
// driver computes spreads with. Fewer than two values have no spread:
// all three are the single value (NaN for none).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// worsening is how much worse `now` is than `base` as a share of base,
// in the metric's own direction: positive means worse.
func worsening(base, now float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (now - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// apart is how far two readings of one metric lie apart: the worsening
// from one to the other, taking as base whichever makes it larger. The
// order of the two does not matter.
func apart(a, b float64, better string) float64 {
	return max(worsening(a, b, better), worsening(b, a, better))
}

// agree reports whether two readings of the same code lie within the
// metric's bound of each other.
func agree(a, b float64, m metricDef) bool {
	return apart(a, b, m.Better) <= m.Bound
}
