// External test package: ctlstress is registered by internal/experiments,
// which imports this package.
package scenario_test

import (
	"runtime"
	"testing"

	_ "repro/internal/experiments" // registers ctlstress
	"repro/internal/freelist"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/seg"
	"repro/internal/tcp"
)

// TestPoolsCarryAcrossRuns checks that the data-path free lists keep what
// one run returned for the next, across garbage collections: an identical
// second run mints at most what the first left outstanding (its own
// Gets − Puts, objects it never returned). A pool the GC empties would
// mint the second run's whole peak again. Both bounds are deltas over the
// runs themselves, so objects that earlier tests in the binary left
// outstanding do not loosen them.
func TestPoolsCarryAcrossRuns(t *testing.T) {
	lists := []struct {
		name  string
		stats func() freelist.Stats
	}{
		{"seg", seg.Shared.Stats},
		{"packet", netem.PacketPoolStats},
		{"chunk", tcp.ChunkPoolStats},
	}
	snap := func() []freelist.Stats {
		out := make([]freelist.Stats, len(lists))
		for i, l := range lists {
			out[i] = l.stats()
		}
		return out
	}
	run := func() {
		p := scenario.NewParams(map[string]string{"smoke": "true"})
		if res := scenario.Job("ctlstress", p)(1); res == nil {
			t.Fatal("ctlstress returned no result")
		}
	}
	before := snap()
	run()
	mid := snap()
	runtime.GC()
	runtime.GC()
	run()
	after := snap()
	for i, l := range lists {
		outstanding := (mid[i].Gets - before[i].Gets) - (mid[i].Puts - before[i].Puts)
		if news := after[i].News - mid[i].News; news > outstanding {
			t.Errorf("%s: second run minted %d, first left %d outstanding (before %+v, between %+v, after %+v)",
				l.name, news, outstanding, before[i], mid[i], after[i])
		}
		if after[i].Gets == mid[i].Gets {
			t.Errorf("%s: second run drew nothing from the list", l.name)
		}
	}
}
