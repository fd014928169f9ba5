package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/runner"
)

func init() {
	// A sweepable scenario: one bulk run whose completion time depends on
	// the link rate parameter.
	Scenarios.Register("test-sweep-bulk", "test-only sweepable bulk", func(p *Params) (*Spec, error) {
		rate := p.Float("rate_mbps", 50, "")
		sched := p.Str("sched", "", "")
		wl := &Bulk{Bytes: 256 << 10}
		return &Spec{
			Name: "test-sweep-bulk",
			Runs: []*RunSpec{{
				Label:    "bulk",
				Topology: Direct{Link: netem.LinkConfig{RateBps: rate * 1e6, Delay: 2 * time.Millisecond}},
				Workload: wl,
				Sched:    sched,
				Settle:   time.Millisecond,
				Probes: []Probe{
					Scalar("done_s", func(rt *Run) float64 { return rt.Sim.Now().Seconds() }),
				},
				Stop: Stop{Horizon: 30 * time.Second, Poll: 10 * time.Millisecond, Until: wl.Done},
			}},
		}, nil
	})
}

// runPlan executes every cell of a plan on the multi-seed runner, the way
// the workspace executor does.
func runPlan(t *testing.T, m *Manifest) ([]Cell, []*runner.Multi) {
	t.Helper()
	cells, err := m.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	multis := make([]*runner.Multi, len(cells))
	for i, c := range cells {
		multis[i] = runner.Run(m.Scenario+" "+c.Label,
			runner.Config{Seeds: m.EffectiveSeeds(), BaseSeed: m.BaseSeed()}, Job(m.Scenario, c.Params))
		if failed := multis[i].Failed(); len(failed) != 0 {
			t.Fatalf("cell %s failed: %v", c.Label, failed[0].Err)
		}
	}
	return cells, multis
}

func TestSweepCrossesAxes(t *testing.T) {
	cells, multis := runPlan(t, &Manifest{
		Scenario: "test-sweep-bulk",
		Seeds:    2,
		Sweep: &ManifestSweep{Vary: []ManifestAxis{
			{Key: "sched", Values: []string{"lowest-rtt", "round-robin"}},
			{Key: "rate_mbps", Values: []string{"10", "100"}},
		}},
	})
	// First axis varies slowest: lowest-rtt cells first.
	wantLabels := []string{
		"sched=lowest-rtt rate_mbps=10", "sched=lowest-rtt rate_mbps=100",
		"sched=round-robin rate_mbps=10", "sched=round-robin rate_mbps=100",
	}
	if len(cells) != len(wantLabels) {
		t.Fatalf("got %d cells, want %d", len(cells), len(wantLabels))
	}
	for i, c := range cells {
		if c.Label != wantLabels[i] || c.ID != CellID(strings.Fields(wantLabels[i])) {
			t.Fatalf("cell %d = %q (id %q), want %q", i, c.Label, c.ID, wantLabels[i])
		}
		if multis[i].ScalarSummary()["done_s"].N() != 2 {
			t.Fatalf("cell %s did not aggregate 2 seeds", c.Label)
		}
	}
	// The slow link must finish later than the fast one, per scheduler.
	slow := multis[0].ScalarSummary()["done_s"].Mean()
	fast := multis[1].ScalarSummary()["done_s"].Mean()
	if slow <= fast {
		t.Fatalf("10 Mbps (%.3fs) should be slower than 100 Mbps (%.3fs)", slow, fast)
	}
}

func TestSweepRejectsInvalidCellUpFront(t *testing.T) {
	for name, m := range map[string]*Manifest{
		"malformed cell": {Scenario: "test-sweep-bulk", Sweep: &ManifestSweep{
			Vary: []ManifestAxis{{Key: "rate_mbps", Values: []string{"10", "oops"}}}}},
		"unknown scenario": {Scenario: "nosuch", Sweep: &ManifestSweep{}},
		"empty axis": {Scenario: "test-sweep-bulk", Sweep: &ManifestSweep{
			Vary: []ManifestAxis{{Key: "rate_mbps"}}}},
	} {
		if _, err := m.Plan(nil); err == nil {
			t.Errorf("%s: expected the plan to be rejected before running", name)
		}
	}
	// Two cells may not share one id — one directory, one file suffix —
	// whether a value repeats or two values sanitise to the same text.
	for _, values := range [][]string{{"10", "10"}, {"1e+1", "1e-1"}} {
		m := &Manifest{Scenario: "test-sweep-bulk", Sweep: &ManifestSweep{
			Vary: []ManifestAxis{{Key: "rate_mbps", Values: values}}}}
		_, err := m.Plan(nil)
		if err == nil || !strings.Contains(err.Error(), `"rate_mbps=`+values[0]+`" and "rate_mbps=`+values[1]+`"`) {
			t.Errorf("values %q: err = %v, want both overrides named", values, err)
		}
	}
}

// A plan builds every cell once; the per-seed builds are the jobs'.
func TestPlanBuildsEachCellOnce(t *testing.T) {
	builds := 0
	Scenarios.Register("test-plan-count", "test-only build counter", func(p *Params) (*Spec, error) {
		builds++
		p.Str("knob", "", "")
		return &Spec{Name: "test-plan-count"}, nil
	})
	cells, err := (&Manifest{Scenario: "test-plan-count", Seeds: 3, Sweep: &ManifestSweep{
		Vary: []ManifestAxis{{Key: "knob", Values: []string{"a", "b", "c"}}}}}).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 || builds != 3 {
		t.Fatalf("planning %d cells built %d specs, want one build per cell", len(cells), builds)
	}
	builds = 0
	if cells, err = (&Manifest{Scenario: "test-plan-count"}).Plan(nil); err != nil || len(cells) != 1 || builds != 1 {
		t.Fatalf("a run is one cell built once: cells %d, builds %d, err %v", len(cells), builds, err)
	}
	if cells[0].ID != "defaults" {
		t.Fatalf("the cell of a manifest without axes is %q, want defaults", cells[0].ID)
	}
}
