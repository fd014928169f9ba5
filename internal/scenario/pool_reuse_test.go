// External test package: ctlstress is registered by internal/experiments,
// which imports this package.
package scenario_test

import (
	"runtime"
	"sync"
	"testing"

	_ "repro/internal/experiments" // registers ctlstress
	"repro/internal/freelist"
	"repro/internal/metrics"
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

// bulkSmoke is the bench's bulk workload at its smoke size: `scale` with
// the kernel path manager, four connections of 128 KB.
var bulkSmoke = map[string]string{"conns": "4", "subflows": "2", "kb": "128", "servers": "4",
	"sched": "lowest-rtt", "wall": "false", "shards": "1", "metrics": ""}

// meteredRun executes one metered bulkSmoke run at seed and returns the
// snapshot of its registry.
func meteredRun(t *testing.T, seed int64) *metrics.Snapshot {
	return meteredRunOf(t, bulkSmoke, seed)
}

// meteredRunOf executes one metered `scale` run of params at seed and
// returns the snapshot of its registry.
func meteredRunOf(t *testing.T, params map[string]string, seed int64) *metrics.Snapshot {
	sp, err := scenario.Build("scale", scenario.NewParams(params))
	if err != nil {
		t.Error(err)
		return nil
	}
	var snap *metrics.Snapshot
	for _, rs := range sp.Runs {
		rs.Probes = append(rs.Probes, scenario.Probe{Name: "snapshot",
			Collect: func(rt *scenario.Run) { snap = rt.Registry.Snapshot() }})
	}
	scenario.Execute(sp, seed)
	return snap
}

// poolNames are the five free lists a metered run reports.
var poolNames = []string{"seg", "packet", "chunk", "wire", "simevent"}

func poolCounter(snap *metrics.Snapshot, name string) uint64 {
	if m := snap.Get(name); m != nil {
		return m.Value
	}
	return 0
}

// TestPoolCountsArePerRun checks that a metered run's pool counters are
// the run's own: a lone run and two runs going at once on other
// goroutines report the same gets and puts for every pool, whichever P
// each lands on, and a run after the others, whose objects it finds in
// the process stores, mints nothing.
func TestPoolCountsArePerRun(t *testing.T) {
	lone := meteredRun(t, 2)
	var pair [2]*metrics.Snapshot
	var wg sync.WaitGroup
	for i := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i] = meteredRun(t, 2)
		}()
	}
	wg.Wait()
	warm := meteredRun(t, 2)
	if t.Failed() {
		return
	}
	for _, p := range poolNames {
		for _, kind := range []string{"_gets", "_puts"} {
			name := "pool_" + p + kind
			want := poolCounter(lone, name)
			for i, snap := range append(pair[:], warm) {
				if got := poolCounter(snap, name); got != want {
					t.Errorf("%s: run %d reports %d, the lone run %d", name, i+1, got, want)
				}
			}
		}
		if news := poolCounter(warm, "pool_"+p+"_news"); news != 0 {
			t.Errorf("pool_%s_news: a run after a warm-up minted %d", p, news)
		}
	}
	if poolCounter(lone, "pool_seg_gets") == 0 {
		t.Error("the run reported no segment traffic")
	}
}

// TestShardedWarmRunMintsNothing checks that the shards of one run share
// the process stores: once two runs have filled them, a third 2-shard run
// finds what both of its loops need there. A loop that took the whole
// store would leave the other shard to mint its peak on every run.
func TestShardedWarmRunMintsNothing(t *testing.T) {
	params := map[string]string{"conns": "32", "subflows": "2", "kb": "128", "servers": "4",
		"sched": "lowest-rtt", "wall": "false", "shards": "2", "metrics": ""}
	var warm *metrics.Snapshot
	for seed := int64(1); seed <= 3; seed++ {
		warm = meteredRunOf(t, params, seed)
	}
	if t.Failed() {
		return
	}
	for _, p := range poolNames {
		if news := poolCounter(warm, "pool_"+p+"_news"); news != 0 {
			t.Errorf("pool_%s_news: a warm 2-shard run minted %d", p, news)
		}
	}
	if poolCounter(warm, "sim_cross_sends") == 0 {
		t.Error("the run sent nothing across shards: it does not exercise two loops")
	}
}
