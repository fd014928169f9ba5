package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// These tests assert the SHAPE of the paper's §4 results on scaled-down
// configurations: who wins, by roughly what factor, where the crossovers
// fall — not absolute testbed numbers.

func TestFig2aSmartSwitchesFast(t *testing.T) {
	r := scenario.Execute(build(t, "fig2a"), 1)
	delay := r.Scalars["switch_delay_s"]
	if delay <= 0 {
		t.Fatal("backup never used")
	}
	// The controller must react within a few seconds of the degradation
	// (the paper's trace shows ≈1 s with a 1 s RTO threshold).
	if delay > 5 {
		t.Fatalf("switch delay %.2fs, want seconds", delay)
	}
	if r.Scalars["switches"] != 1 {
		t.Fatalf("switches = %v", r.Scalars["switches"])
	}
	// The trace must show primary data before the switch and backup after.
	if len(r.Series) != 2 || len(r.Series[0].T) == 0 || len(r.Series[1].T) == 0 {
		t.Fatalf("trace series incomplete")
	}
	if r.Series[0].T[0] >= r.Series[1].T[0] {
		t.Fatal("backup carried data before the primary")
	}
}

func TestFig2aBaselineTakesMinutes(t *testing.T) {
	r := scenario.Execute(build(t, "fig2a", "baseline"), 1) // implies a radio blackout
	first := r.Scalars["backup_first_data_s"]
	// The kernel needs its RTO backoff budget (≈15 doublings) before the
	// pre-established backup carries data: minutes, not seconds. The
	// paper reports ≈12 min; Linux's retry budget computes to ≈15 min.
	if first < 300 || first > 1800 {
		t.Fatalf("kernel baseline switched at %.0fs, want minutes", first)
	}
}

func TestFig2bShape(t *testing.T) {
	// Full-length stream (the default 120 blocks): shorter runs sample
	// too little of the loss tail for the 4x growth assertion to be
	// stable across RNG layouts.
	r := scenario.Execute(build(t, "fig2b", "loss_levels=0.10,0.40"), 1)
	smart := r.Samples["smart stream"]
	low := r.Samples["fullmesh 10% loss"]
	high := r.Samples["fullmesh 40% loss"]
	// The unmanaged tail grows sharply with loss.
	if high.Quantile(0.95) < 4*low.Quantile(0.95) {
		t.Fatalf("fullmesh tail did not grow with loss: p95 %.2fs vs %.2fs",
			low.Quantile(0.95), high.Quantile(0.95))
	}
	// Smart stream (at 30% loss) stays bounded: every block within a few
	// seconds, far below the unmanaged 40% tail.
	if smart.Max() > 5 {
		t.Fatalf("smart stream max delay %.2fs", smart.Max())
	}
	if smart.Quantile(0.9) > 1 {
		t.Fatalf("smart stream p90 %.2fs, want sub-second", smart.Quantile(0.9))
	}
}

func TestFig2bSmartLossInvariance(t *testing.T) {
	// "our controller provides almost the same CDF of the block delays
	// for packet loss ratios in the 10-40% range."
	var p90s []float64
	for _, loss := range []string{"loss=0.10", "loss=0.40"} {
		r := scenario.Execute(build(t, "fig2b", "blocks=50", "loss_levels=", loss), 1)
		p90s = append(p90s, r.Samples["smart stream"].Quantile(0.9))
	}
	if p90s[1] > 4*p90s[0]+1 {
		t.Fatalf("smart stream not loss-invariant: p90 %.2fs @10%% vs %.2fs @40%%", p90s[0], p90s[1])
	}
}

func TestFig2cShape(t *testing.T) {
	// Scaled to 50 MB: completion scales linearly with size, and the
	// refresh controller needs a handful of 2.5 s polling rounds to
	// converge, so very small files would mask its advantage.
	r := scenario.Execute(build(t, "fig2c", "trials=5", "mb=50"), 1)
	nd := r.Samples["ndiffports"]
	rf := r.Samples["refresh"]
	// Refresh must win on median (it converges towards all four paths).
	if rf.Median() > nd.Median() {
		t.Fatalf("refresh median %.1fs not better than ndiffports %.1fs", rf.Median(), nd.Median())
	}
	// Both stay within the single-path worst bound.
	worst := float64(50<<20*8) / 8e6
	if nd.Max() > worst*1.2 || rf.Max() > worst*1.2 {
		t.Fatalf("completion beyond the one-path bound: nd=%.1fs rf=%.1fs worst=%.1fs",
			nd.Max(), rf.Max(), worst)
	}
	// ndiffports leaves paths unused on average (that is its problem).
	if r.Samples["ndiffports paths used"].Mean() > 3.9 {
		t.Fatalf("ndiffports used %.2f paths on average; no headroom for refresh to win",
			r.Samples["ndiffports paths used"].Mean())
	}
}

func TestFig3Shape(t *testing.T) {
	r := scenario.Execute(build(t, "fig3", "requests=150"), 1)
	k := r.Samples["kernel"]
	u := r.Samples["userspace"]
	if k.N() < 140 || u.N() < 140 {
		t.Fatalf("samples: kernel=%d user=%d", k.N(), u.N())
	}
	// Both managers react in well under a millisecond.
	if k.Median() > 1.0 || u.Median() > 1.0 {
		t.Fatalf("medians: %.3f / %.3f ms", k.Median(), u.Median())
	}
	// The userspace penalty is tens of microseconds — present but small.
	delta := r.Scalars["delta_us"]
	if delta < 5 || delta > 60 {
		t.Fatalf("userspace penalty %.1f µs, want ≈10-40µs", delta)
	}
	// Under CPU stress the penalty grows but stays bounded (paper: <37µs
	// on their hardware; our stressed model roughly doubles the base).
	rs := scenario.Execute(build(t, "fig3", "requests=150", "stressed"), 1)
	if rs.Scalars["delta_us"] < delta-10 {
		t.Fatalf("stress did not increase the penalty: %.1f vs %.1f µs",
			rs.Scalars["delta_us"], delta)
	}
	if rs.Scalars["delta_us"] > 100 {
		t.Fatalf("stressed penalty %.1f µs too large", rs.Scalars["delta_us"])
	}
}

func TestLongLivedSmartVsPlain(t *testing.T) {
	smart := scenario.Execute(build(t, "longlived", "messages=6"), 1)
	if smart.Scalars["messages_delivered"] != smart.Scalars["messages_sent"] {
		t.Fatalf("smart controller lost messages: %+v", smart.Scalars)
	}
	if smart.Scalars["reestablishments"] == 0 {
		t.Fatal("no re-establishments despite NAT expiries")
	}
	if smart.Scalars["live_subflows_at_end"] == 0 {
		t.Fatal("no live subflows at the end")
	}
	// The nil policy: same stack, no controller.
	plain := scenario.Execute(build(t, "longlived", "messages=6", "policy="), 1)
	if plain.Scalars["messages_delivered"] >= plain.Scalars["messages_sent"] {
		t.Fatal("plain stack should lose messages once NAT state expires")
	}
}

func TestReportsRenderable(t *testing.T) {
	// Every report must include its section headers and summaries.
	r := scenario.Execute(build(t, "fig2b", "blocks=10", "loss_levels=0.10"), 1)
	for _, want := range []string{"Fig. 2b", "CDF", "summary", "smart stream"} {
		if !strings.Contains(r.Report, want) {
			t.Fatalf("report missing %q:\n%s", want, r.Report)
		}
	}
	if !strings.Contains(scenario.Execute(build(t, "fig3", "requests=10"), 1).Report, "userspace penalty") {
		t.Fatal("fig3 report incomplete")
	}
}

func TestDeterminism(t *testing.T) {
	a := scenario.Execute(build(t, "fig2a"), 1)
	b := scenario.Execute(build(t, "fig2a"), 1)
	if a.Scalars["switch_delay_s"] != b.Scalars["switch_delay_s"] {
		t.Fatal("identical seeds diverged")
	}
	c := scenario.Execute(build(t, "fig2a"), 2)
	if a.Scalars["switch_delay_s"] == c.Scalars["switch_delay_s"] {
		t.Log("note: different seeds produced identical switch delay (possible but unusual)")
	}
}

func TestFig2aThresholdMonotonicity(t *testing.T) {
	// A larger RTO threshold cannot make the switch happen earlier. An
	// aggressive 500 ms threshold may even trip on slow-start congestion
	// BEFORE the radio degrades — a false positive worth documenting.
	var at []float64
	for _, th := range []string{"500ms", "1s", "2s"} {
		// 120 s gives the 2 s threshold time to trip; 50 % loss makes
		// backoff chains frequent.
		r := scenario.Execute(build(t, "fig2a", "duration=120s", "loss=0.5", "threshold="+th), 1)
		if r.Scalars["switches"] != 1 {
			t.Fatalf("threshold %v: switches = %v", th, r.Scalars["switches"])
		}
		at = append(at, r.Scalars["backup_first_data_s"])
	}
	for i := 1; i < len(at); i++ {
		if at[i]+0.25 < at[i-1] {
			t.Fatalf("switch times not monotone in threshold: %v", at)
		}
	}
}
