package experiments

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// fig2bConfig parameterises the §4.3 smart-streaming experiment and the
// single stream session cut from it.
type fig2bConfig struct {
	Sched      string
	Policy     string        // controller of the smart curve (paper: stream)
	LossLevels []float64     // loss ratios for the full-mesh baseline curves
	SmartLoss  float64       // loss ratio for the Smart Stream curve (paper: invariant in 10-40%)
	Blocks     int           // blocks per run
	Period     time.Duration // 1 s
	BlockSize  int           // 64 KB
	ProbeAt    time.Duration // controller's intra-block probe point (0 = its own 500 ms)
}

// The paper's stream: a 64 KB block every second.
const (
	streamPeriod    = time.Second
	streamBlockSize = 64 << 10
)

func init() {
	scenario.Scenarios.Register("fig2b",
		"smart streaming (§4.3): CDFs of 64 KB block completion times, full-mesh per loss level vs the stream controller",
		func(p *scenario.Params) (*scenario.Spec, error) {
			return fig2bSpec(fig2bConfig{
				Sched:  p.Sched(),
				Policy: p.Str("policy", "stream", "registered subflow controller of the smart curve"),
				LossLevels: p.Floats("loss_levels", []float64{0.10, 0.20, 0.30, 0.40},
					"loss ratios of the full-mesh baseline curves", []float64{0.30}),
				SmartLoss: p.Float("loss", 0.30, "loss ratio of the smart-stream curve"),
				Blocks:    p.Int("blocks", 120, "blocks per curve", 10),
				Period:    p.Duration("period", streamPeriod, "block emission period"),
				BlockSize: p.Int("block_size", streamBlockSize, "bytes per block"),
				ProbeAt: p.Duration("probe_at", 500*time.Millisecond,
					"when, within a block, the stream controller probes the second path"),
			}), nil
		})
}

// streamRun declares one §4.3 streaming session: the two-path topology,
// the block-streaming workload, loss on the primary path from 1 s on,
// and the per-block delays collected under the given curve name. fig2b
// draws several of these on one figure; stream is exactly one, so that
// crossing it over schedulers and controllers is a sweep's job
// (examples/manifests/ctlsweep.json, schedsweep.json), not a scenario's.
func streamRun(cfg fig2bConfig, loss float64, policy, curve string) *scenario.RunSpec {
	p := netem.LinkConfig{RateBps: 5e6, Delay: 10 * time.Millisecond}
	wl := &scenario.BlockStream{Period: cfg.Period, BlockSize: cfg.BlockSize, Blocks: cfg.Blocks}
	// Observe long enough for stragglers (RTO tails can reach minutes on
	// the unmanaged stack).
	horizon := time.Duration(cfg.Blocks)*cfg.Period + 3*time.Minute
	return &scenario.RunSpec{
		Label:    curve,
		Topology: scenario.TwoPath{P0: p, P1: p},
		Workload: wl,
		Sched:    cfg.Sched,
		Policy:   policy,
		PolicyCfg: smapp.ControllerConfig{
			Subflows:  2,
			Period:    cfg.Period,
			BlockSize: cfg.BlockSize,
			Probe:     cfg.ProbeAt,
		},
		Settle: time.Millisecond,
		Events: []scenario.Event{scenario.SetLossAt(time.Second, "path0", loss)},
		Stop:   scenario.Stop{Horizon: horizon},
		Probes: []scenario.Probe{
			{Name: curve, Collect: func(rt *scenario.Run) {
				rt.Result.Samples[curve] = wl.Delays(horizon)
			}},
		},
	}
}

// fig2bSpec declares the streaming experiment: one curve per loss level
// under the default full-mesh path manager, plus the Smart Stream
// controller curve, rendered as the paper's CDF of block completion
// times.
func fig2bSpec(cfg fig2bConfig) *scenario.Spec {
	var runs []*scenario.RunSpec
	var names []string
	for _, loss := range cfg.LossLevels {
		name := fmt.Sprintf("fullmesh %.0f%% loss", loss*100)
		names = append(names, name)
		runs = append(runs, streamRun(cfg, loss, "kernel", name))
	}
	names = append(names, "smart stream")
	runs = append(runs, streamRun(cfg, cfg.SmartLoss, cfg.Policy, "smart stream"))

	return &scenario.Spec{
		Name:  "fig2b",
		Title: "Fig. 2b — smarter streaming (§4.3)",
		Desc: fmt.Sprintf("2 x 5 Mbps, 10 ms paths; %d B block every %v; %d blocks per curve",
			cfg.BlockSize, cfg.Period, cfg.Blocks),
		Runs: runs,
		Render: func(res *stats.Result, runs []*scenario.Run) {
			res.Section("CDF of block completion time (seconds)")
			res.RenderCDFs(names...)

			res.Section("summary")
			res.Printf("%-22s %8s %8s %8s %8s\n", "curve", "median", "p90", "p99", "max")
			for _, n := range names {
				s := res.Samples[n]
				res.Printf("%-22s %7.2fs %7.2fs %7.2fs %7.2fs\n",
					n, s.Median(), s.Quantile(0.9), s.Quantile(0.99), s.Max())
			}
			smart := res.Samples["smart stream"]
			res.Scalars["smart_p90_s"] = smart.Quantile(0.9)
			if worst, ok := res.Samples[fmt.Sprintf("fullmesh %.0f%% loss", cfg.SmartLoss*100)]; ok {
				res.Scalars["fullmesh_same_loss_p90_s"] = worst.Quantile(0.9)
			}
		},
	}
}
