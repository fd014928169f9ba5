package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// runScale executes the stress matrix for cfg, wall-clock scalars included.
func runScale(cfg ScaleConfig) *stats.Result {
	return scenario.Execute(scaleSpec(cfg, true), cfg.Seed)
}

// smallScale keeps the stress matrix test-sized.
func smallScale(seed int64) ScaleConfig {
	cfg := DefaultScale()
	cfg.Seed = seed
	cfg.Conns = 4
	cfg.BytesPerConn = 128 << 10
	cfg.Schedulers = []string{"lowest-rtt"}
	return cfg
}

func TestScaleKernelCellCompletes(t *testing.T) {
	r := runScale(smallScale(1))
	if got := r.Scalars["lowest-rtt/kernel_completed"]; got != 4 {
		t.Fatalf("completed %v of 4 connections\n%s", got, r.Report)
	}
	if r.Scalars["lowest-rtt/kernel_goodput_mbps"] <= 0 {
		t.Fatalf("no goodput recorded\n%s", r.Report)
	}
}

// TestScaleControllerCell drives the sweep through the smapp facade: the
// userspace full-mesh policy must also finish every transfer.
func TestScaleControllerCell(t *testing.T) {
	cfg := smallScale(1)
	cfg.Controllers = []string{scenario.KernelPolicy, "fullmesh"}
	r := runScale(cfg)
	for _, key := range []string{"lowest-rtt/kernel_completed", "lowest-rtt/fullmesh_completed"} {
		if got := r.Scalars[key]; got != 4 {
			t.Fatalf("%s = %v, want 4\n%s", key, got, r.Report)
		}
	}
}

// TestScaleDeterministicPerSeed checks the pooled data path stays
// reproducible under concurrency stress: every simulated scalar of two
// same-seed runs must agree exactly (wall-clock scalars excluded — they
// measure the host, not the model).
func TestScaleDeterministicPerSeed(t *testing.T) {
	a := runScale(smallScale(3))
	b := runScale(smallScale(3))
	for k, v := range a.Scalars {
		if strings.HasSuffix(k, "_wall_s") {
			continue
		}
		if b.Scalars[k] != v {
			t.Fatalf("scalar %s diverged between same-seed runs: %v vs %v", k, v, b.Scalars[k])
		}
	}
}
