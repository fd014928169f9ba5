package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// runFleet builds and executes the registered fleet scenario with the
// given extra parameters at the given shard count (0 = engine default).
func runFleet(t *testing.T, extra map[string]string, shards int) *stats.Result {
	t.Helper()
	p := scenario.NewParams(extra)
	if shards > 0 {
		p.Set("shards", strconv.Itoa(shards))
	}
	sp, err := scenario.Build("fleet", p)
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Execute(sp, 5)
}

func checkSame(t *testing.T, label string, a, b *stats.Result) {
	t.Helper()
	if a.Report != b.Report {
		t.Fatalf("%s: same-seed reports diverged\n--- first ---\n%s\n--- second ---\n%s",
			label, a.Report, b.Report)
	}
	for k, v := range a.Scalars {
		if strings.HasSuffix(k, "_wall_s") {
			continue
		}
		if b.Scalars[k] != v {
			t.Fatalf("%s: scalar %s diverged: %v vs %v", label, k, v, b.Scalars[k])
		}
	}
}

// TestFleetDeterminism1000Devices is the tentpole acceptance gate: a
// 1000-device corpus is bit-identical run to run and at every shard
// count — the per-ordinal splitmix64 streams keep the corpus itself
// seed- and shard-independent, and the sharded simulator keeps the
// execution so.
func TestFleetDeterminism1000Devices(t *testing.T) {
	params := map[string]string{
		"devices":  "1000",
		"kb":       "8",
		"duration": "3s",
	}
	a := runFleet(t, params, 0)
	if a.Scalars["completed"] == 0 {
		t.Fatal("no device completed its upload")
	}
	if a.Scalars["handovers_scheduled"] == 0 {
		t.Fatal("corpus scheduled no handovers")
	}
	checkSame(t, "repeat", a, runFleet(t, params, 0))
	for _, shards := range []int{1, 2, 8} {
		checkSame(t, fmt.Sprintf("shards=%d", shards), a,
			runFleet(t, params, shards))
	}
}

// TestFleetRejectsBadParams pins the factory-level validation errors.
func TestFleetRejectsBadParams(t *testing.T) {
	for _, bad := range []map[string]string{
		{"profile_mix": "nope"},
		{"handover_rate": "0"},
		{"handover_rate": "-2"},
		{"devices": "0"},
		{"bogus_key": "1"},
	} {
		p := scenario.NewParams(bad)
		if _, err := scenario.Build("fleet", p); err == nil {
			t.Fatalf("fleet accepted %v", bad)
		}
	}
}
