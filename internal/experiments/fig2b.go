package experiments

import (
	"fmt"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/pm"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// Fig2bConfig parameterises the §4.3 smart-streaming experiment.
type Fig2bConfig struct {
	Seed       int64
	Sched      string        // registered scheduler name; "" = lowest-rtt
	Policy     string        // registered controller for the smart curve (paper: stream)
	LossLevels []float64     // loss ratios for the full-mesh baseline curves
	SmartLoss  float64       // loss ratio for the Smart Stream curve (paper: invariant in 10-40%)
	Blocks     int           // blocks per run
	Period     time.Duration // 1 s
	BlockSize  int           // 64 KB
	LossAt     time.Duration // loss starts after this settle time
	ProbeAt    time.Duration // controller's intra-block probe point (default 500 ms)
}

// DefaultFig2b returns the paper's parameters: 2×5 Mbps / 10 ms paths,
// 64 KB per second, losses 10–40 %.
func DefaultFig2b() Fig2bConfig {
	return Fig2bConfig{
		Seed:       1,
		Policy:     "stream",
		LossLevels: []float64{0.10, 0.20, 0.30, 0.40},
		SmartLoss:  0.30,
		Blocks:     120,
		Period:     time.Second,
		BlockSize:  64 << 10,
		LossAt:     time.Second,
	}
}

func init() {
	scenario.Register("fig2b",
		"smart streaming (§4.3): CDFs of 64 KB block completion times, full-mesh per loss level vs the stream controller",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := DefaultFig2b()
			cfg.Sched = p.Str("sched", cfg.Sched)
			cfg.Policy = p.Str("policy", cfg.Policy)
			cfg.LossLevels = p.Floats("loss_levels", cfg.LossLevels)
			cfg.SmartLoss = p.Float("loss", cfg.SmartLoss)
			cfg.Blocks = p.Int("blocks", cfg.Blocks)
			cfg.Period = p.Duration("period", cfg.Period)
			cfg.BlockSize = p.Int("block_size", cfg.BlockSize)
			cfg.ProbeAt = p.Duration("probe_at", cfg.ProbeAt)
			if p.Bool("smoke", false) {
				cfg.Blocks = 10
				cfg.LossLevels = []float64{0.30}
			}
			return fig2bSpec(cfg), nil
		})
	scenario.RegisterParams("fig2b",
		scenario.ParamDoc{Key: "loss_levels", Type: "list", Default: "0.10,0.20,0.30,0.40", Desc: "loss ratios of the full-mesh baseline curves"},
		scenario.ParamDoc{Key: "loss", Type: "float", Default: "0.30", Desc: "loss ratio of the smart-stream curve"},
		scenario.ParamDoc{Key: "blocks", Type: "int", Default: "120", Desc: "blocks per curve"},
		scenario.ParamDoc{Key: "period", Type: "duration", Default: "1s", Desc: "block emission period"},
		scenario.ParamDoc{Key: "block_size", Type: "int", Default: "65536", Desc: "bytes per block"},
		scenario.ParamDoc{Key: "probe_at", Type: "duration", Default: "500ms", Desc: "when, within a block, the stream controller probes the second path"},
	)

	scenario.Register("stream",
		"one §4.3 streaming session: 64 KB blocks over two 5 Mbps paths, loss on the primary, under one scheduler and one subflow controller",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := DefaultFig2b()
			cfg.Sched = p.Str("sched", cfg.Sched)
			cfg.Policy = p.Str("policy", scenario.KernelPolicy)
			cfg.SmartLoss = p.Float("loss", cfg.SmartLoss)
			cfg.Blocks = p.Int("blocks", cfg.Blocks)
			if p.Bool("smoke", false) {
				cfg.Blocks = 10
			}
			return streamSpec(cfg), nil
		})
	scenario.RegisterParams("stream",
		scenario.ParamDoc{Key: "loss", Type: "float", Default: "0.30", Desc: "primary-path loss ratio"},
		scenario.ParamDoc{Key: "blocks", Type: "int", Default: "120", Desc: "blocks streamed"},
	)
}

// streamRun declares one §4.3 streaming session: the two-path topology,
// the block-streaming workload, loss on the primary path from LossAt on,
// and the per-block delays collected under the given curve name. The
// empty policy runs the in-kernel full-mesh baseline. fig2b draws several
// of these on one figure; stream is exactly one, so that crossing it over
// schedulers and controllers is a sweep's job (examples/manifests/
// ctlsweep.json, schedsweep.json), not a scenario's.
func streamRun(cfg Fig2bConfig, loss float64, policy, curve string) *scenario.RunSpec {
	p := netem.LinkConfig{RateBps: 5e6, Delay: 10 * time.Millisecond}
	wl := &scenario.BlockStream{Period: cfg.Period, BlockSize: cfg.BlockSize, Blocks: cfg.Blocks}
	var kernelPM func() mptcp.PathManager
	if policy == "" {
		kernelPM = func() mptcp.PathManager { return pm.NewFullMesh() }
	}
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
		KernelPM: kernelPM,
		Settle:   time.Millisecond,
		Events:   []scenario.Event{scenario.SetLossAt(cfg.LossAt, "path0", loss)},
		Stop:     scenario.Stop{Horizon: horizon},
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
func fig2bSpec(cfg Fig2bConfig) *scenario.Spec {
	var runs []*scenario.RunSpec
	var names []string
	for _, loss := range cfg.LossLevels {
		name := fmt.Sprintf("fullmesh %.0f%% loss", loss*100)
		names = append(names, name)
		runs = append(runs, streamRun(cfg, loss, "", name))
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

// streamCurve names the one distribution a stream run collects. Every
// cell of a sweep over stream uses it, which is what lets the sweep report
// draw the cells' CDFs on one axis.
const streamCurve = "block completion time (s)"

// streamSpec declares one streaming session under cfg.Policy at
// cfg.SmartLoss: the single configuration the controller and scheduler
// sweeps re-run per cell.
func streamSpec(cfg Fig2bConfig) *scenario.Spec {
	return &scenario.Spec{
		Name:  "stream",
		Title: "Streaming session — §4.3 workload under one policy",
		Desc: fmt.Sprintf("2 x 5 Mbps, 10 ms paths; %d B block every %v; %d blocks; %.0f%% loss; policy %s",
			cfg.BlockSize, cfg.Period, cfg.Blocks, cfg.SmartLoss*100, cfg.Policy),
		Runs: []*scenario.RunSpec{streamRun(cfg, cfg.SmartLoss, cfg.Policy, streamCurve)},
		Render: func(res *stats.Result, _ []*scenario.Run) {
			res.Section("CDF of block completion time (seconds)")
			res.RenderCDFs(streamCurve)

			s := res.Samples[streamCurve]
			res.Section("summary")
			res.Printf("median %.2fs  p90 %.2fs  p99 %.2fs  max %.2fs\n",
				s.Median(), s.Quantile(0.9), s.Quantile(0.99), s.Max())
			res.Scalars["median_s"] = s.Median()
			res.Scalars["p90_s"] = s.Quantile(0.9)
			res.Scalars["p99_s"] = s.Quantile(0.99)
			res.Scalars["max_s"] = s.Max()
		},
	}
}
