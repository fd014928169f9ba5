package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// runScale executes a test-sized stress cell (4 conns × 128 KB on
// lowest-rtt), wall-clock scalars included.
func runScale(t *testing.T, seed int64, sets ...string) *stats.Result {
	sets = append([]string{"conns=4", "kb=128"}, sets...)
	return scenario.Execute(build(t, "scale", sets...), seed)
}

func TestScaleKernelCellCompletes(t *testing.T) {
	r := runScale(t, 1)
	if got := r.Scalars["lowest-rtt/kernel_completed"]; got != 4 {
		t.Fatalf("completed %v of 4 connections\n%s", got, r.Report)
	}
	if r.Scalars["lowest-rtt/kernel_goodput_mbps"] <= 0 {
		t.Fatalf("no goodput recorded\n%s", r.Report)
	}
}

// TestScaleControllerCell drives the cell through the smapp facade: the
// userspace full-mesh policy must also finish every transfer.
func TestScaleControllerCell(t *testing.T) {
	r := runScale(t, 1, "policy=fullmesh")
	if got := r.Scalars["lowest-rtt/fullmesh_completed"]; got != 4 {
		t.Fatalf("lowest-rtt/fullmesh_completed = %v, want 4\n%s", got, r.Report)
	}
}

// TestScaleDeterministicPerSeed checks the pooled data path stays
// reproducible under concurrency stress: every simulated scalar of two
// same-seed runs must agree exactly (wall-clock scalars excluded — they
// measure the host, not the model).
func TestScaleDeterministicPerSeed(t *testing.T) {
	a := runScale(t, 3)
	b := runScale(t, 3)
	for k, v := range a.Scalars {
		if strings.HasSuffix(k, "_wall_s") {
			continue
		}
		if b.Scalars[k] != v {
			t.Fatalf("scalar %s diverged between same-seed runs: %v vs %v", k, v, b.Scalars[k])
		}
	}
}
