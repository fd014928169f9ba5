package fleet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// config parameterises one fleet run. The default is the paper-sized
// corpus: 64 mixed devices uploading 64 KB each while they roam.
type config struct {
	Devices      int
	Servers      int           // server hosts, dialed round-robin
	Bytes        int           // upload size per device
	Duration     time.Duration // corpus window / stop horizon
	Mix          string        // profile mix spec (see ParseMix)
	HandoverRate float64       // mobility multiplier (1 = profile cadence)
	Sched        string        // packet scheduler
	Policy       string        // subflow controller
}

func init() {
	scenario.Scenarios.Register("fleet",
		"fleet mobility corpus: N heterogeneous devices with per-device WiFi/LTE handover schedules",
		func(p *scenario.Params) (*scenario.Spec, error) {
			return fleetSpec(config{
				Devices:  p.Int("devices", 64, "fleet size", 12),
				Servers:  p.Int("servers", 1, "server hosts behind the aggregation"),
				Bytes:    p.Int("kb", 64, "upload per device in KB", 32) << 10,
				Duration: p.Duration("duration", 20*time.Second, "corpus window", 6*time.Second),
				Mix: p.Str("profile_mix", DefaultMix, "weighted device classes, e.g. commuter:3,office:1 (profiles: "+
					strings.Join(ProfileNames(), ", ")+")"),
				HandoverRate: p.Float("handover_rate", 1, "mobility multiplier: 2 hands over twice as often"),
				Sched:        p.Sched(),
				Policy:       p.Str("policy", "fullmesh", "registered subflow controller"),
			})
		})
}

// fleetSpec declares one fleet run: generate the corpus, build the star
// of per-device access links, upload under the mobility timeline, and
// reduce the per-device accounting to fleet-level percentiles. The
// percentile scalars come straight from the workload — no tracing — so
// multi-shard and multi-seed fleets stay legal; a traced single-shard
// run additionally gets the trace layer's handover-gap samples through
// the generic trace probe.
func fleetSpec(cfg config) (*scenario.Spec, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("fleet: devices=%d: need at least one", cfg.Devices)
	}
	mix, err := ParseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	gen := GenConfig{Mix: mix, Duration: cfg.Duration, HandoverRate: cfg.HandoverRate}
	devs, err := Generate(cfg.Devices, gen)
	if err != nil {
		return nil, err
	}
	wl := pacedLoad(cfg.Bytes, cfg.Duration)
	run := &scenario.RunSpec{
		Label: "fleet",
		// Every server sits behind a 400 Mbps aggregation trunk.
		Topology: Star(devs, cfg.Servers, netem.LinkConfig{
			RateBps: 400e6, Delay: 500 * time.Microsecond,
		}),
		Workload: wl,
		Sched:    cfg.Sched,
		Policy:   cfg.Policy,
		Events:   Schedule(devs, gen),
		Stop: scenario.Stop{
			Horizon: cfg.Duration,
			Poll:    50 * time.Millisecond,
			Until:   wl.Done,
		},
	}
	return &scenario.Spec{
		Name:  "fleet",
		Title: "Fleet mobility corpus — per-device handover schedules at scale",
		Desc: fmt.Sprintf("%d devices (%s), %d KB up each, handover rate %gx, %v window",
			cfg.Devices, cfg.Mix, cfg.Bytes>>10, cfg.HandoverRate, cfg.Duration),
		Runs: []*scenario.RunSpec{run},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			renderFleet(res, devs, wl, cfg)
		},
	}, nil
}

// pacedLoad builds the fleet workload paced over ~60% of the corpus
// window: 16 blocks per device, so every transfer is still in flight
// when the handover timelines start firing, and the remaining 40% is
// slack for stall recovery. An upload that would finish instantly tells
// a policy comparison nothing.
func pacedLoad(bytes int, duration time.Duration) *Load {
	const chunks = 16
	return &Load{
		Bytes:  bytes,
		Chunks: chunks,
		Period: duration * 6 / 10 / chunks,
	}
}

// renderFleet reduces the run's per-device accounting to the report's
// distributions and writes the fleet sections and scalars. The samples
// land under stable names so multi-seed runs pool them across seeds.
func renderFleet(res *stats.Result, devs []*Device, wl *Load, cfg config) {
	completed, handovers := 0, 0
	goodput := &stats.Sample{} // per-device delivered Mb/s
	stalls := &stats.Sample{}  // per-device worst data gap, seconds
	// A paced upload idles for one Period between blocks by design; only
	// the excess over that floor is a stall the network caused.
	var floor sim.Time
	if wl.Chunks > 1 {
		floor = sim.Time(wl.Period)
	}
	for i := range wl.CompletedAt {
		handovers += devs[i].Handovers
		end := wl.CompletedAt[i]
		if end >= 0 {
			completed++
		} else {
			end = wl.LastData[i]
		}
		if end > wl.DialAt[i] && wl.Recv[i] > 0 {
			goodput.Add(float64(wl.Recv[i]*8) / (end - wl.DialAt[i]).Seconds() / 1e6)
		} else {
			goodput.Add(0)
		}
		stall := wl.MaxGap[i] - floor
		if stall < 0 {
			stall = 0
		}
		stalls.Add(stall.Seconds())
	}
	res.Scalars["completed"] = float64(completed)
	res.Scalars["handovers_scheduled"] = float64(handovers)
	res.Scalars["gap_p50_s"] = stalls.Median()
	res.Scalars["gap_p99_s"] = stalls.Quantile(0.99)
	res.Scalars["gap_max_s"] = stalls.Max()
	res.Scalars["goodput_p10_mbps"] = goodput.Quantile(0.10)
	res.Scalars["goodput_p50_mbps"] = goodput.Median()
	res.Scalars["goodput_p90_mbps"] = goodput.Quantile(0.90)
	res.Sample("device goodput (Mb/s)").Add(goodput.Values()...)
	res.Sample("device worst stall (s)").Add(stalls.Values()...)

	counts := map[string]int{}
	hos := map[string]int{}
	for _, d := range devs {
		counts[d.Profile.Name]++
		hos[d.Profile.Name] += d.Handovers
	}
	res.Section("profile mix")
	res.Printf("%-12s %7s %10s\n", "profile", "devices", "handovers")
	for _, name := range ProfileNames() {
		if counts[name] == 0 {
			continue
		}
		res.Printf("%-12s %7d %10d\n", name, counts[name], hos[name])
	}

	res.Section("fleet outcome")
	res.Printf("completed %d/%d uploads; %d handovers scheduled\n",
		completed, cfg.Devices, handovers)
	res.Printf("worst stall   p50 %6.3fs  p99 %6.3fs  max %6.3fs\n",
		stalls.Median(), stalls.Quantile(0.99), stalls.Max())
	res.Printf("goodput       p10 %6.2f   p50 %6.2f   p90 %6.2f Mb/s\n",
		goodput.Quantile(0.10), goodput.Median(), goodput.Quantile(0.90))
}
