package experiments

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// CtlSweepConfig parameterises the controller-sweep experiment.
type CtlSweepConfig struct {
	Seed        int64
	Sched       string        // packet scheduler for every run
	Controllers []string      // registered policy names; empty sweeps every one
	Loss        float64       // loss ratio on the primary path
	Blocks      int           // blocks per controller run
	Period      time.Duration // one block per period
	BlockSize   int
	LossAt      time.Duration // loss starts after this settle time
}

// DefaultCtlSweep sweeps every registered controller over the §4.3
// streaming workload at 30 % loss.
func DefaultCtlSweep() CtlSweepConfig {
	return CtlSweepConfig{
		Seed:      1,
		Loss:      0.30,
		Blocks:    120,
		Period:    time.Second,
		BlockSize: 64 << 10,
		LossAt:    time.Second,
	}
}

func init() {
	scenario.Register("ctlsweep",
		"controller sweep: the §4.3 streaming workload once per registered subflow controller, plus the plain stack",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := DefaultCtlSweep()
			cfg.Sched = p.Str("sched", cfg.Sched)
			if c := p.Str("policy", ""); c != "" {
				cfg.Controllers = []string{c} // sweep a single policy
			}
			cfg.Controllers = p.Strings("controllers", cfg.Controllers)
			cfg.Loss = p.Float("loss", cfg.Loss)
			cfg.Blocks = p.Int("blocks", cfg.Blocks)
			if p.Bool("smoke", false) {
				cfg.Blocks = 10
			}
			return ctlSweepSpec(cfg)
		})
	scenario.RegisterParams("ctlsweep",
		scenario.ParamDoc{Key: "controllers", Type: "list", Desc: "swept subflow controllers (default: every registered one + plain)"},
		scenario.ParamDoc{Key: "loss", Type: "float", Default: "0.30", Desc: "primary-path loss ratio"},
		scenario.ParamDoc{Key: "blocks", Type: "int", Default: "120", Desc: "blocks per controller"},
	)
}

// ctlSweepSpec declares the controller-space analogue of schedsweep: the
// paper's streaming workload once per registered subflow controller —
// every policy selected purely by registry name through the smapp facade
// — plus the nil-policy plain stack, comparing the block-completion-time
// distributions. The sweep makes the policy/workload fit visible: stream
// is built for this workload, backup and fullmesh recover more slowly,
// and refresh/ndiffports — whose extra subflows all share the lossy
// primary interface — actively hurt, spreading blocks across many
// RTO-prone subflows.
func ctlSweepSpec(cfg CtlSweepConfig) (*scenario.Spec, error) {
	ctls := cfg.Controllers
	if len(ctls) == 0 {
		ctls = smapp.ControllerNames()
	}
	for _, name := range ctls {
		if _, err := smapp.LookupController(name); err != nil {
			return nil, err
		}
	}

	streamCfg := Fig2bConfig{
		Sched:     cfg.Sched,
		Blocks:    cfg.Blocks,
		Period:    cfg.Period,
		BlockSize: cfg.BlockSize,
		LossAt:    cfg.LossAt,
	}
	curves := append(append([]string(nil), ctls...), "none")
	var runs []*scenario.RunSpec
	for _, name := range curves {
		policy := name
		if name == "none" {
			policy = "" // the nil-policy plain stack as the reference curve
		}
		runs = append(runs, streamRun(streamCfg, cfg.Loss, policy, name))
	}

	return &scenario.Spec{
		Name:  "ctlsweep",
		Title: "Controller sweep — §4.3 streaming workload per subflow controller",
		Desc: fmt.Sprintf("2 x 5 Mbps, 10 ms paths; %d B block every %v; %d blocks; %.0f%% loss",
			cfg.BlockSize, cfg.Period, cfg.Blocks, cfg.Loss*100),
		Runs: runs,
		Render: func(res *stats.Result, _ []*scenario.Run) {
			res.Section("CDF of block completion time (seconds) per controller")
			res.RenderCDFs(curves...)

			res.Section("summary")
			res.Printf("%-12s %8s %8s %8s %8s\n", "controller", "median", "p90", "p99", "max")
			for _, name := range curves {
				s := res.Samples[name]
				res.Printf("%-12s %7.2fs %7.2fs %7.2fs %7.2fs\n",
					name, s.Median(), s.Quantile(0.9), s.Quantile(0.99), s.Max())
				res.Scalars[name+"_median_s"] = s.Median()
				res.Scalars[name+"_p90_s"] = s.Quantile(0.9)
			}
		},
	}, nil
}
