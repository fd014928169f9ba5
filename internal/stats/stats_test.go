package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	s.Add(xs...)
	return s
}

func TestBasicMoments(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	if s.Mean() != 3 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if s.N() != 5 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Fatal("empty sample not zero-valued")
	}
	if s.CDFAt(1) != 0 {
		t.Fatal("empty CDF nonzero")
	}
}

func TestQuantiles(t *testing.T) {
	s := sampleOf(10, 20, 30, 40)
	if s.Quantile(0) != 10 || s.Quantile(1) != 40 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := s.Median(); got != 25 {
		t.Fatalf("median = %f, want 25 (interpolated)", got)
	}
	if got := s.Quantile(1.0 / 3); got != 20 {
		t.Fatalf("q33 = %f, want 20", got)
	}
}

func TestCDFAt(t *testing.T) {
	s := sampleOf(1, 2, 2, 3)
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.CDFAt(c.x); got != c.want {
			t.Fatalf("CDFAt(%f) = %f, want %f", c.x, got, c.want)
		}
	}
}

func TestUnsortedAfterAdd(t *testing.T) {
	s := sampleOf(5, 1)
	_ = s.Min() // forces sort
	s.Add(0)
	if s.Min() != 0 {
		t.Fatal("Add after sort not re-sorted")
	}
}

func TestSeries(t *testing.T) {
	var ser Series
	ser.Append(0, 1, "a")
	ser.Append(1, 2, "b")
	if len(ser.T) != 2 || ser.Labels[1] != "b" {
		t.Fatalf("series = %+v", ser)
	}
}

func TestRenderCDFs(t *testing.T) {
	out := RenderCDFs(40, 10, map[string]*Sample{
		"fast": sampleOf(1, 1.1, 1.2, 1.3),
		"slow": sampleOf(2, 2.5, 3, 4),
	})
	if !strings.Contains(out, "fast") || !strings.Contains(out, "slow") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "1.00") {
		t.Fatalf("axis missing:\n%s", out)
	}
	if RenderCDFs(40, 10, map[string]*Sample{"e": {}}) != "(no data)\n" {
		t.Fatal("empty render wrong")
	}
}

func TestSummary(t *testing.T) {
	got := sampleOf(1, 2, 3).Summary("s")
	if !strings.Contains(got, "n=3") || !strings.Contains(got, "mean=2s") {
		t.Fatalf("summary = %q", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		s := sampleOf(xs...)
		q1 = math.Mod(math.Abs(q1), 1)
		q2 = math.Mod(math.Abs(q2), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDFAt is a valid CDF — monotone, 0 before min, 1 at max.
func TestQuickCDFValid(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		s := sampleOf(xs...)
		if math.IsInf(s.Max()-s.Min(), 0) {
			return true // range overflow; interpolation below meaningless
		}
		if s.CDFAt(math.Nextafter(s.Min(), math.Inf(-1))) != 0 || s.CDFAt(s.Max()) != 1 {
			return false
		}
		prev := -1.0
		for i := 0; i <= 20; i++ {
			x := s.Min() + (s.Max()-s.Min())*float64(i)/20
			p := s.CDFAt(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}
