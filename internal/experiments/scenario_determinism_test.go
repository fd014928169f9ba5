package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestEveryScenarioDeterministic runs every registered scenario at the
// same seed (smoke-sized) — twice on the default single loop, then once
// per shard count in {1, 2, 8} — and demands byte-identical reports and
// scalar-identical results across ALL of them: the contract that makes
// golden tests, the multi-seed runner, CI comparisons, and the sharded
// simulator's speedups meaningful. Wall-clock scalars measure the host,
// not the model, and are excluded; scale's wall-clock report section is
// disabled via its wall=false parameter.
func TestEveryScenarioDeterministic(t *testing.T) {
	names := scenario.Scenarios.Names()
	if len(names) < 8 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			once := func(shards int) *stats.Result {
				p := scenario.NewParams(map[string]string{"smoke": "true"})
				if name == "scale" {
					p.Set("wall", "false")
				}
				if shards > 0 {
					p.Set("shards", strconv.Itoa(shards))
				}
				sp, err := scenario.Build(name, p)
				if err != nil {
					t.Fatal(err)
				}
				return scenario.Execute(sp, 5)
			}
			check := func(label string, a, b *stats.Result) {
				t.Helper()
				if a.Report != b.Report {
					t.Fatalf("%s: same-seed reports diverged\n--- first ---\n%s\n--- second ---\n%s", label, a.Report, b.Report)
				}
				for k, v := range a.Scalars {
					if strings.HasSuffix(k, "_wall_s") {
						continue // host wall-clock, not simulated
					}
					if b.Scalars[k] != v {
						t.Fatalf("%s: scalar %s diverged between same-seed runs: %v vs %v", label, k, v, b.Scalars[k])
					}
				}
			}
			a := once(0)
			if len(a.Scalars) == 0 {
				t.Fatal("scenario produced no scalars")
			}
			check("repeat", a, once(0))
			for _, shards := range []int{1, 2, 8} {
				check(fmt.Sprintf("shards=%d", shards), a, once(shards))
			}
		})
	}
}
