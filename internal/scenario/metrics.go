package scenario

import (
	"repro/internal/freelist"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// MetricsSpec turns on runtime metrics for one run: the engine builds a
// shard-aware metrics.Registry and the metrics probe harvests into it, at
// collect time, the plain counters every layer keeps (simulator, pools,
// links, endpoints, control plane). File, when non-empty, is where the
// run's metrics.json lands.
type MetricsSpec struct {
	File string
}

// EnableMetrics arms metrics on every run of a spec and appends the
// metrics probe that folds the registry snapshot into the report and
// writes the metrics.json file. Multi-run specs write one file per run,
// the PartFile of the run's label (as EnableTrace does); file "" collects
// and renders without writing a file. Build calls this for the `metrics=`
// parameter every registered scenario accepts.
func EnableMetrics(sp *Spec, file string) {
	multi := len(sp.Runs) > 1
	for _, rs := range sp.Runs {
		f := file
		title := "Runtime metrics"
		if multi && rs.Label != "" {
			f = PartFile(f, rs.Label)
			title += " — " + rs.Label
		}
		rs.Metrics = &MetricsSpec{File: f}
		rs.Probes = append(rs.Probes, metricsProbe(f, title))
	}
}

// pools names the process-wide free lists whose traffic a metered run
// harvests, in harvest order.
var pools = [...]struct {
	name  string
	stats func() freelist.Stats
}{
	{"seg", seg.Shared.Stats},
	{"packet", netem.PacketPoolStats},
	{"chunk", tcp.ChunkPoolStats},
	{"wire", nlmsg.Wire.Stats},
}

// poolBaseline snapshots the pools' counters at run start, so the probe
// can report per-run deltas. The pools are process-wide, which is also
// why `metrics=` refuses to run under the concurrent multi-seed runner:
// parallel seeds would bleed into each other's deltas.
type poolBaseline [len(pools)]freelist.Stats

func capturePools() poolBaseline {
	var b poolBaseline
	for i, p := range pools {
		b[i] = p.stats()
	}
	return b
}

// metricsProbe is the Metrics probe kind: Collect harvests the counters
// the simulation accumulated (simulator windows/barriers, pool traffic,
// link drops, endpoint totals, the Netlink control plane), renders the
// sorted text snapshot into the report under title, and writes
// metrics.json.
func metricsProbe(file, title string) Probe {
	return Probe{
		Name: "metrics",
		Collect: func(rt *Run) {
			rt.harvestRuntime()
			rt.harvestPools()
			rt.harvestLinks()
			rt.harvestEndpoints()
			rt.harvestControlPlane()
			snap := rt.Registry.Snapshot()
			rt.Result.Section(title)
			rt.Result.Printf("%s", snap.Text())
			if file != "" {
				if err := snap.WriteFile(file); err != nil {
					panic(err) // the runner reports this as the seed's failure
				}
			}
		},
	}
}

// harvestRuntime folds the sim.World runtime counters into the registry.
// Window carving, barrier counts and cross-shard traffic describe HOW
// the simulation was executed, not what the model did: they are stable
// for a fixed shard count but change with it, hence the layout tag.
// Barrier wait/busy spans are host-speed wall time.
func (rt *Run) harvestRuntime() {
	w, ok := rt.Sim.(*sim.World)
	if !ok {
		return
	}
	r := rt.Registry
	st := w.RuntimeStats()
	for i, v := range st.ShardEvents {
		r.Counter("sim_events", i).Add(v)
	}
	r.Counter("sim_globals", 0).Add(st.Globals)
	r.Counter("sim_windows_interior", 0, metrics.TagLayout).Add(st.WindowsInterior)
	r.Counter("sim_windows_boundary", 0, metrics.TagLayout).Add(st.WindowsBoundary)
	r.Counter("sim_windows_idle", 0, metrics.TagLayout).Add(st.WindowsIdle)
	r.Counter("sim_barriers", 0, metrics.TagLayout).Add(st.Barriers)
	for i, v := range st.CrossSends {
		r.Counter("sim_cross_sends", i, metrics.TagLayout).Add(v)
	}
	for i, v := range st.BarrierWaitNs {
		r.Counter("sim_barrier_wait_ns", i, metrics.TagWall).Add(v)
	}
	for i, v := range st.BusyNs {
		r.Counter("sim_window_busy_ns", i, metrics.TagWall).Add(v)
	}
	for i := range st.EventPoolGets {
		r.Counter("pool_simevent_gets", i, metrics.TagLayout).Add(st.EventPoolGets[i])
		r.Counter("pool_simevent_puts", i, metrics.TagLayout).Add(st.EventPoolPuts[i])
		r.Counter("pool_simevent_news", i, metrics.TagLayout).Add(st.EventPoolNews[i])
	}
}

// harvestPools folds the per-run deltas of the process-wide free lists
// into the registry. Gets/puts are deterministic protocol behaviour;
// news (Gets that found the list empty) depend on what ran earlier in
// the process, so they carry the wall tag.
func (rt *Run) harvestPools() {
	r := rt.Registry
	now := capturePools()
	for i, p := range pools {
		n, b := now[i], rt.poolBase[i]
		r.Counter("pool_"+p.name+"_gets", 0).Add(n.Gets - b.Gets)
		r.Counter("pool_"+p.name+"_puts", 0).Add(n.Puts - b.Puts)
		r.Counter("pool_"+p.name+"_news", 0, metrics.TagWall).Add(n.News - b.News)
	}
}

// harvestLinks sums every link's drop counters by cause. Totals over
// both directions of every duplex are topology-level behaviour,
// identical at any shard count.
func (rt *Run) harvestLinks() {
	r := rt.Registry
	var rand, queue, down, cut uint64
	for _, d := range rt.Net.Links {
		for _, l := range []*netem.Link{d.AB, d.BA} {
			s := l.Stats
			rand += s.LostRand
			queue += s.DropQueue
			down += s.DropDown
			cut += s.DropCut
		}
	}
	r.Counter("netem_drop_rand", 0).Add(rand)
	r.Counter("netem_drop_queue", 0).Add(queue)
	r.Counter("netem_drop_down", 0).Add(down)
	r.Counter("netem_drop_cut", 0).Add(cut)
}

// harvestEndpoints folds every MPTCP endpoint's totals, client stacks'
// and servers' alike, into the slot of its host's shard.
func (rt *Run) harvestEndpoints() {
	for _, st := range rt.Stacks {
		rt.harvestEndpoint(st.Endpoint)
	}
	for _, ep := range rt.ServerEps {
		rt.harvestEndpoint(ep)
	}
}

func (rt *Run) harvestEndpoint(ep *mptcp.Endpoint) {
	r, slot, t := rt.Registry, sim.ShardIndex(ep.Clock()), ep.Totals()
	r.Counter("tcp_retrans_segs", slot).Add(t.Retrans)
	r.Counter("tcp_fast_retrans", slot).Add(t.FastRetrans)
	r.Counter("tcp_rto_timeouts", slot).Add(t.Timeouts)
	picks := r.HistogramLinear("mptcp_sched_picks", len(t.Picks), slot)
	for i, n := range t.Picks {
		picks.ObserveN(uint64(i), n)
	}
	r.Counter("mptcp_reinject_bytes", slot).Add(t.Reinjected)
	r.Counter("mptcp_dup_bytes", slot).Add(t.Duplicated)
	r.Gauge("mptcp_reassembly_oo_hw", slot).SetMax(t.ReassemblyOOHW)
}

// harvestControlPlane folds every client stack's Netlink counters into
// the slot of its host's shard. A stack with an in-kernel path manager
// has no Netlink PM and contributes none: a run of such stacks only has
// no ctl_* names.
func (rt *Run) harvestControlPlane() {
	for _, st := range rt.Stacks {
		if st.PM != nil {
			st.PM.HarvestInto(rt.Registry, sim.ShardIndex(st.Host.Clock()))
		}
	}
}
