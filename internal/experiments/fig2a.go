package experiments

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// fig2aConfig parameterises the §4.2 smart-backup experiment.
type fig2aConfig struct {
	Sched     string
	Policy    string        // controller of the smart mode (paper: backup)
	Baseline  bool          // run the in-kernel pre-established-backup baseline instead
	LossRatio float64       // loss on the primary path after LossAt (paper: 0.30)
	LossAt    time.Duration // when the radio degrades (paper: 1 s)
	Threshold time.Duration // controller's RTO threshold (paper: 1 s)
	Duration  time.Duration // observation window for the trace (paper plots 4 s)
}

func init() {
	scenario.Scenarios.Register("fig2a",
		"smart backup (§4.2): RTO-triggered switch to the backup path vs the in-kernel baseline",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := fig2aConfig{
				Sched:    p.Sched(),
				Policy:   p.Str("policy", "backup", "registered subflow controller of the smart mode"),
				Baseline: p.Bool("baseline", false, "run the in-kernel pre-established-backup baseline (implies loss=1.0)"),
			}
			loss := 0.30
			if cfg.Baseline {
				loss = 1.0 // radio blackout, as the kernel baseline is measured
			}
			cfg.LossRatio = p.Float("loss", loss, "primary-path loss ratio after loss_at")
			cfg.LossAt = p.Duration("loss_at", time.Second, "when the primary path degrades")
			cfg.Threshold = p.Duration("threshold", time.Second, "RTO threshold that triggers the backup subflow")
			cfg.Duration = p.Duration("duration", 8*time.Second, "observation window", 4*time.Second)
			return fig2aSpec(cfg), nil
		})
}

// fig2aSpec declares the smart-backup experiment: a bulk transfer over
// the two-path topology whose primary degrades at LossAt. With the smart
// controller the backup subflow is created only when the primary's RTO
// crosses the threshold; the push-trace probe records the data sequence
// numbers carried per subflow over time (the paper's green/red trace).
// With Baseline the backup subflow is pre-established with the RFC 6824
// backup flag on a plain kernel stack, and the kernel alone decides —
// which takes ~15 RTO backoffs (minutes).
func fig2aSpec(cfg fig2aConfig) *scenario.Spec {
	mode := fmt.Sprintf("smart controller (userspace %q policy)", cfg.Policy)
	policy := cfg.Policy
	horizon := cfg.Duration
	if cfg.Baseline {
		mode = "in-kernel baseline (pre-established backup flag)"
		policy = "kernel-none"
		// The kernel baseline needs to ride out up to 15 RTO backoffs.
		horizon = 30 * time.Minute
	}

	p := netem.LinkConfig{RateBps: 5e6, Delay: 15 * time.Millisecond}
	trace := scenario.NewPushTrace(1)
	wl := &scenario.Bulk{Bytes: 64 << 20, SinkExpect: 1 << 40} // unbounded; we observe a window

	events := []scenario.Event{scenario.SetLossAt(cfg.LossAt, "path0", cfg.LossRatio)}
	if cfg.Baseline {
		// Pre-establish the backup subflow with the backup flag, as the
		// kernel-only deployment would (after the handshake finished).
		// As a scheduled event this fires at t=200ms, 1 ms earlier than
		// the pre-scenario code (which ran 200 ms past the settle): the
		// baseline variant is not byte-pinned, and its minutes-scale RTO
		// shape is insensitive to the shift.
		pre := scenario.Event{At: 200 * time.Millisecond,
			Fn: func(rt *scenario.Run, _ scenario.EventArg) {
				ep := rt.Net.ClientAt(0)
				if _, err := rt.Conn.OpenSubflow(ep.Addrs[1], 0, rt.Net.ServerAddr, 80, true); err != nil {
					panic(err)
				}
			}}
		events = append([]scenario.Event{pre}, events...)
	}

	run := &scenario.RunSpec{
		Label:     "fig2a",
		Topology:  scenario.TwoPath{P0: p, P1: p},
		Workload:  wl,
		Sched:     cfg.Sched,
		Policy:    policy,
		PolicyCfg: smapp.ControllerConfig{Threshold: cfg.Threshold},
		Settle:    time.Millisecond,
		Events:    events,
		Probes: []scenario.Probe{
			trace.Probe(),
			{Name: "fig2a.scalars", Collect: func(rt *scenario.Run) {
				res := rt.Result
				res.Scalars["loss_at_s"] = cfg.LossAt.Seconds()
				if trace.FirstBackup >= 0 {
					res.Scalars["backup_first_data_s"] = trace.FirstBackup.Seconds()
					res.Scalars["switch_delay_s"] = trace.FirstBackup.Seconds() - cfg.LossAt.Seconds()
				} else {
					res.Scalars["backup_first_data_s"] = -1
				}
				if ctl, ok := rt.Stack.Controller(rt.Conn).(*controller.Backup); ok {
					res.Scalars["switches"] = float64(ctl.Stats.Switches)
				}
				res.Scalars["rcv_bytes"] = float64(wl.Sink.Received)
			}},
		},
		// Stop as soon as the backup carries data (plus a tail for the
		// trace).
		Stop: scenario.Stop{
			Horizon: horizon,
			Poll:    100 * time.Millisecond,
			Until:   func(*scenario.Run) bool { return trace.FirstBackup >= 0 },
			Tail:    2 * time.Second,
		},
	}

	return &scenario.Spec{
		Name:  "fig2a",
		Title: "Fig. 2a — smarter backup (§4.2)",
		Desc: fmt.Sprintf("mode: %s\nprimary loss -> %.0f%% at %v; RTO threshold %v",
			mode, cfg.LossRatio*100, cfg.LossAt, cfg.Threshold),
		Runs: []*scenario.RunSpec{run},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			res.Section("data sequence progress per subflow")
			res.Printf("%-10s %14s %14s\n", "subflow", "first push (s)", "last seq (B)")
			for _, ser := range res.Series {
				if len(ser.T) == 0 {
					res.Printf("%-10s %14s %14s\n", ser.Name, "-", "-")
					continue
				}
				res.Printf("%-10s %14.3f %14.0f\n", ser.Name, ser.T[0], ser.Y[len(ser.Y)-1])
			}
			res.Section("headline")
			if trace.FirstBackup >= 0 {
				res.Printf("primary degraded at t=%.2fs; backup subflow first carried data at t=%.2fs (%.2fs later)\n",
					cfg.LossAt.Seconds(), trace.FirstBackup.Seconds(),
					trace.FirstBackup.Seconds()-cfg.LossAt.Seconds())
			} else {
				res.Printf("backup never carried data within %v\n", cfg.Duration)
			}
			res.Printf("receiver got %.2f MB in the observation window\n", float64(wl.Sink.Received)/1e6)
		},
	}
}
