package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/stats"
)

func init() {
	scenario.Scenarios.Register("stream",
		"one §4.3 streaming session: 64 KB blocks over two 5 Mbps paths, loss on the primary, under one scheduler and one subflow controller",
		func(p *scenario.Params) (*scenario.Spec, error) {
			return streamSpec(fig2bConfig{
				Sched:     p.Sched(),
				Policy:    p.Str("policy", "kernel", "path manager: a controller or an in-kernel manager (mpexp list)"),
				SmartLoss: p.Float("loss", 0.30, "primary-path loss ratio"),
				Blocks:    p.Int("blocks", 120, "blocks streamed", 10),
				Period:    streamPeriod,
				BlockSize: streamBlockSize,
			}), nil
		})
}

// streamCurve names the one distribution a stream run collects. Every
// cell of a sweep over stream uses it, which is what lets the sweep report
// draw the cells' CDFs on one axis.
const streamCurve = "block completion time (s)"

// streamSpec declares one streaming session under cfg.Policy at
// cfg.SmartLoss: the single configuration the controller and scheduler
// sweeps re-run per cell.
func streamSpec(cfg fig2bConfig) *scenario.Spec {
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
