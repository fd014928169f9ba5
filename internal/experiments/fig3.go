package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// fig3Config parameterises the §4.5 path-manager-cost experiment.
type fig3Config struct {
	Sched    string
	Policy   string // controller of the userspace variant (paper: ndiffports)
	Requests int    // consecutive HTTP/1.0-style GETs (paper: 1000)
	RespSize int    // 512 KB in the paper
	Stressed bool   // model the CPU-stressed client of §4.5
}

func init() {
	scenario.Scenarios.Register("fig3",
		"path-manager cost (§4.5): CDFs of the MP_CAPABLE→MP_JOIN SYN delay, kernel vs userspace manager",
		func(p *scenario.Params) (*scenario.Spec, error) {
			return fig3Spec(fig3Config{
				Sched:    p.Sched(),
				Policy:   p.Str("policy", "ndiffports", "registered subflow controller of the userspace variant"),
				Requests: p.Int("requests", 1000, "consecutive GETs", 25),
				RespSize: p.Int("resp_kb", 512, "response size in KB") << 10,
				Stressed: p.Bool("stressed", false, "model the CPU-stressed client"),
			}), nil
		})
}

// fig3Run declares one GET-loop variant on the direct lab link: the
// userspace variant manages subflows through the Netlink control plane,
// the kernel variant through the in-kernel ndiffports path manager. The
// request/response workload drives the simulation itself and samples the
// delay between the SYN carrying MP_CAPABLE and the SYN carrying MP_JOIN
// per request.
func fig3Run(cfg fig3Config, userspace bool) (*scenario.RunSpec, *scenario.ReqResp) {
	policy, variant := "kernel-ndiffports", "kernel"
	var stackConfig func(*scenario.Run, int, *smapp.Config)
	if userspace {
		policy, variant = cfg.Policy, "userspace"
		if cfg.Stressed {
			// On the client's own clock, where smapp.New puts the default
			// transport.
			stackConfig = func(rt *scenario.Run, i int, c *smapp.Config) {
				c.Transport = core.NewStressedSimTransport(rt.ClientClock(i))
			}
		}
	}
	wl := &scenario.ReqResp{Requests: cfg.Requests, ReqSize: 200, RespSize: cfg.RespSize}
	run := &scenario.RunSpec{
		Label: variant,
		Topology: scenario.Direct{
			Link: netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Microsecond},
			// Host processing jitter: the dominant term of the
			// sub-millisecond delays in the paper's lab measurement.
			ClientProc: scenario.Proc{Base: 40 * time.Microsecond, Jitter: 30 * time.Microsecond},
			ServerProc: scenario.Proc{Base: 50 * time.Microsecond, Jitter: 40 * time.Microsecond},
		},
		Workload:    wl,
		Sched:       cfg.Sched,
		Policy:      policy,
		PolicyCfg:   smapp.ControllerConfig{Subflows: 2},
		StackConfig: stackConfig,
		Settle:      time.Millisecond,
		Probes: []scenario.Probe{
			{Name: variant, Collect: func(rt *scenario.Run) {
				rt.Result.Samples[variant] = wl.Delays
			}},
		},
		// The workload drives the simulation; no Stop condition.
	}
	return run, wl
}

// fig3Spec declares the experiment: the kernel and userspace variants
// back to back, rendered as the paper's CDF. The paper reports the
// userspace manager adding ≈23 µs on average (< 37 µs under CPU stress).
func fig3Spec(cfg fig3Config) *scenario.Spec {
	stress := ""
	if cfg.Stressed {
		stress = " (CPU-stressed client)"
	}
	kernelRun, _ := fig3Run(cfg, false)
	userRun, _ := fig3Run(cfg, true)
	return &scenario.Spec{
		Name:  "fig3",
		Title: "Fig. 3 — kernel vs userspace path manager (§4.5)",
		Desc: fmt.Sprintf("1 Gbps direct link; %d consecutive %d KB GETs%s",
			cfg.Requests, cfg.RespSize>>10, stress),
		Runs: []*scenario.RunSpec{kernelRun, userRun},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			kernel := res.Samples["kernel"]
			user := res.Samples["userspace"]
			res.Section("CDF of delay between MP_CAPABLE SYN and MP_JOIN SYN (ms)")
			res.RenderCDFs("kernel", "userspace")

			res.Section("summary")
			res.Printf("%-10s %10s %10s %10s\n", "variant", "mean", "median", "p95")
			for _, n := range []string{"kernel", "userspace"} {
				s := res.Samples[n]
				res.Printf("%-10s %9.3fms %9.3fms %9.3fms\n",
					n, s.Mean(), s.Median(), s.Quantile(0.95))
			}
			deltaUS := (user.Mean() - kernel.Mean()) * 1000
			res.Printf("\nuserspace penalty: %.1f µs on average (paper: ≈23 µs, <37 µs stressed)\n", deltaUS)
			res.Scalars["kernel_mean_ms"] = kernel.Mean()
			res.Scalars["user_mean_ms"] = user.Mean()
			res.Scalars["delta_us"] = deltaUS
		},
	}
}
