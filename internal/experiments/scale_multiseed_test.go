// External test package: the multi-seed scale test goes through the
// scenario registry, the way every other caller reaches an experiment.
package experiments_test

import (
	"testing"

	_ "repro/internal/experiments" // registers scale
	"repro/internal/runner"
	"repro/internal/scenario"
)

// TestScaleMultiSeed runs the scale experiment across seeds on the
// concurrent multi-seed runner — under `make race` (CI) this is the race
// gate for the pooled segment/chunk/event lifecycle, whose free lists'
// mutexes guard the only state shared between worker goroutines.
func TestScaleMultiSeed(t *testing.T) {
	// smoke = 4 conns × 128 KB on lowest-rtt.
	job := scenario.Job("scale", scenario.NewParams(map[string]string{"smoke": "true"}))
	m := runner.Run("scale", runner.Config{Seeds: 4, BaseSeed: 1, Parallel: 4}, job)
	if failed := m.Failed(); len(failed) != 0 {
		t.Fatalf("seed %d failed: %v", failed[0].Seed, failed[0].Err)
	}
	sum, ok := m.ScalarSummary()["lowest-rtt/kernel_completed"]
	if !ok || sum.Mean() != 4 {
		t.Fatalf("expected every seed to complete 4 connections (summary: %+v)", m.ScalarSummary())
	}
}
