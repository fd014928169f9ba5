package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// scaleConfig parameterises the stress workload: N concurrent Multipath
// TCP connections × M subflows each, streaming simultaneously through one
// shared bottleneck under one packet scheduler and one subflow controller.
// The default is bench-sized: 16 clients × 2 subflows pushing 1 MB each.
type scaleConfig struct {
	Conns        int    // concurrent connections, one client host each
	Subflows     int    // interfaces per client (→ subflows via full-mesh)
	Servers      int    // server hosts behind the aggregation, dialed round-robin
	BytesPerConn int    // payload each client streams at t≈0
	Sched        string // packet scheduler
	Policy       string // path manager, by policy name
	Wall         bool   // include the wall-clock report section
}

// The star fabric scale and ctlstress share: 50 Mbps access links with
// 10 ms one-way delay into a 200 Mbps bottleneck per server.
const (
	stressAccessBps     = 50e6
	stressBottleneckBps = 200e6
	stressDelay         = 10 * time.Millisecond
)

func stressStar(clients, ifaces, servers int) scenario.Star {
	return scenario.Star{
		Clients:    clients,
		Ifaces:     ifaces,
		Servers:    servers,
		Access:     netem.LinkConfig{RateBps: stressAccessBps, Delay: stressDelay},
		Bottleneck: netem.LinkConfig{RateBps: stressBottleneckBps, Delay: 500 * time.Microsecond},
	}
}

func init() {
	scenario.Scenarios.Register("scale",
		"scale stress: N conns × M subflows through a shared bottleneck under one scheduler and one controller",
		func(p *scenario.Params) (*scenario.Spec, error) {
			return scaleSpec(scaleConfig{
				Conns:        p.Int("conns", 16, "concurrent connections (one client host each)", 4),
				Subflows:     p.Int("subflows", 2, "interfaces (→ subflows) per client"),
				Servers:      p.Int("servers", 1, "server hosts, dialed round-robin"),
				BytesPerConn: p.Int("kb", 1024, "payload per connection in KB", 128) << 10,
				Sched:        p.Sched(),
				Policy:       p.Str("policy", "kernel", "path manager: a controller or an in-kernel manager (mpexp list)"),
				Wall:         p.Bool("wall", true, "include wall-clock throughput scalars"),
			}), nil
		})
}

// scaleCell is the outcome of the run.
type scaleCell struct {
	completed  int
	medianS    float64
	p90S       float64
	goodputMbs float64 // delivered payload bits/s over the busy interval
	pkts       uint64  // packets delivered end to end (both directions)
	drops      uint64  // queue drops at the bottleneck
	events     uint64  // simulator events processed
	wall       time.Duration
}

// scaleSpec declares the stress cell: one fan-out run on a fresh star
// topology. Crossing it over schedulers and controllers is a sweep's job
// (examples/manifests/scalesweep.json). Simulated results (completions,
// goodput, drops) are deterministic per seed; the wall-clock throughput
// scalars (segs_per_wall_s, events_per_wall_s) measure the host executing
// the simulation and feed the performance trajectory in the bench
// artifact. Wall=false suppresses the wall-clock report section (it would
// break report determinism checks).
func scaleSpec(cfg scaleConfig) *scenario.Spec {
	run := &scenario.RunSpec{
		Label:     cfg.Sched + "/" + cfg.Policy,
		Topology:  stressStar(cfg.Conns, cfg.Subflows, cfg.Servers),
		Workload:  &scenario.FanOut{Bytes: cfg.BytesPerConn},
		Sched:     cfg.Sched,
		Policy:    cfg.Policy,
		PolicyCfg: smapp.ControllerConfig{Subflows: cfg.Subflows},
		Stop:      scenario.Stop{Horizon: 2 * time.Minute},
	}

	return &scenario.Spec{
		Name:  "scale",
		Title: "Scale stress — pooled data path under concurrent load",
		Desc: fmt.Sprintf("%d conns x %d subflows, %d KB each; access %.0f Mbps, bottleneck %.0f Mbps, %v delay",
			cfg.Conns, cfg.Subflows, cfg.BytesPerConn>>10, stressAccessBps/1e6, stressBottleneckBps/1e6, stressDelay),
		Runs: []*scenario.RunSpec{run},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			c := scaleCellOf(cfg, runs[0])
			key := cfg.Sched + "/" + cfg.Policy
			res.Scalars[key+"_completed"] = float64(c.completed)
			res.Scalars[key+"_median_s"] = c.medianS
			res.Scalars[key+"_p90_s"] = c.p90S
			res.Scalars[key+"_goodput_mbps"] = c.goodputMbs
			res.Scalars[key+"_bottleneck_drops"] = float64(c.drops)
			res.Sample(key + " completion (s)").Add(c.medianS)

			// The section and its one row keep the layout of the matrix
			// this scenario used to be: the bench digests hash the report.
			res.Section("sweep matrix")
			res.Printf("%-14s %-10s %5s %9s %9s %9s %9s %7s\n",
				"scheduler", "controller", "done", "median", "p90", "goodput", "pkts", "drops")
			res.Printf("%-14s %-10s %3d/%-2d %8.2fs %8.2fs %6.1fMb/s %9d %7d\n",
				cfg.Sched, cfg.Policy, c.completed, cfg.Conns, c.medianS, c.p90S, c.goodputMbs, c.pkts, c.drops)

			wallS := c.wall.Seconds()
			if wallS > 0 {
				res.Scalars["segs_per_wall_s"] = float64(c.pkts) / wallS
				res.Scalars["events_per_wall_s"] = float64(c.events) / wallS
				// Host throughput measures the machine, not the model:
				// tag it so `mpexp diff` skips it instead of relying on
				// the name (host speed is the benchmark's business).
				res.MarkWallClock("segs_per_wall_s", "events_per_wall_s")
			}
			if cfg.Wall && wallS > 0 {
				res.Section("host throughput (wall clock)")
				res.Printf("delivered %d packets / processed %d events in %v: %.0f segs/s, %.0f events/s\n",
					c.pkts, c.events, c.wall.Round(time.Millisecond),
					float64(c.pkts)/wallS, float64(c.events)/wallS)
			}
		},
	}
}

// scaleCellOf reduces the fan-out run to its report row.
func scaleCellOf(cfg scaleConfig, rt *scenario.Run) scaleCell {
	wl := rt.Spec.Workload.(*scenario.FanOut)
	var cell scaleCell
	delays := &stats.Sample{}
	var lastDone sim.Time
	var delivered uint64
	for i, at := range wl.CompletedAt {
		if at < 0 {
			continue
		}
		cell.completed++
		delays.Add(time.Duration(at - wl.DialAt[i]).Seconds())
		if at > lastDone {
			lastDone = at
		}
		delivered += uint64(cfg.BytesPerConn)
	}
	if delays.N() > 0 {
		cell.medianS = delays.Median()
		cell.p90S = delays.Quantile(0.9)
	}
	if lastDone > 0 {
		cell.goodputMbs = float64(delivered*8) / lastDone.Seconds() / 1e6
	}
	for _, srv := range rt.Net.Servers {
		cell.pkts += srv.Stats.Delivered
	}
	for _, cl := range rt.Net.Clients {
		cell.pkts += cl.Host.Stats.Delivered
	}
	for name, d := range rt.Net.Links {
		if strings.HasPrefix(name, "bottleneck") {
			cell.drops += d.AB.Stats.DropQueue + d.BA.Stats.DropQueue
		}
	}
	cell.events = rt.Sim.Processed()
	cell.wall = rt.Wall
	return cell
}
