package fleet

import (
	"fmt"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// SweepConfig parameterises the policy-survival sweep: one identical
// fleet corpus per (controller, scheduler) cell, so the table isolates
// what the policy layer does under fleet-scale mobility.
type SweepConfig struct {
	Seed         int64
	Devices      int
	Bytes        int
	Duration     time.Duration
	Mix          string
	HandoverRate float64
	Bottleneck   float64
	Controllers  []string // swept policies; empty = every registered controller
	Schedulers   []string // swept schedulers; empty = every registered scheduler
}

// DefaultSweep is the sweep-sized corpus: smaller than the fleet default
// because it runs controllers × schedulers times.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Seed:         1,
		Devices:      16,
		Bytes:        48 << 10,
		Duration:     10 * time.Second,
		Mix:          DefaultMix,
		HandoverRate: 1,
		Bottleneck:   400e6,
	}
}

func init() {
	scenario.Register("fleetsweep",
		"policy survival at fleet scale: the same mobility corpus per subflow controller x packet scheduler",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := DefaultSweep()
			cfg.Devices = p.Int("devices", cfg.Devices)
			cfg.Bytes = p.Int("kb", cfg.Bytes>>10) << 10
			cfg.Duration = p.Duration("duration", cfg.Duration)
			cfg.Mix = p.Str("profile_mix", cfg.Mix)
			cfg.HandoverRate = p.Float("handover_rate", cfg.HandoverRate)
			if c := p.Str("policy", ""); c != "" {
				cfg.Controllers = []string{c}
			}
			cfg.Controllers = p.Strings("controllers", cfg.Controllers)
			if s := p.Str("sched", ""); s != "" {
				cfg.Schedulers = []string{s}
			}
			cfg.Schedulers = p.Strings("schedulers", cfg.Schedulers)
			if p.Bool("smoke", false) {
				cfg.Devices = 6
				cfg.Bytes = 16 << 10
				cfg.Duration = 4 * time.Second
			}
			return sweepSpec(cfg)
		})
	scenario.RegisterParams("fleetsweep",
		scenario.ParamDoc{Key: "devices", Type: "int", Default: "16", Desc: "fleet size per cell"},
		scenario.ParamDoc{Key: "controllers", Type: "list", Desc: "swept subflow controllers (default: every registered one)"},
		scenario.ParamDoc{Key: "schedulers", Type: "list", Desc: "swept packet schedulers (default: every registered one)"},
		scenario.ParamDoc{Key: "profile_mix", Type: "string", Default: DefaultMix, Desc: "weighted device classes shared by every cell"},
		scenario.ParamDoc{Key: "handover_rate", Type: "float", Default: "1", Desc: "mobility multiplier shared by every cell"},
		scenario.ParamDoc{Key: "duration", Type: "duration", Default: "10s", Desc: "corpus window per cell"},
		scenario.ParamDoc{Key: "kb", Type: "int", Default: "48", Desc: "upload per device in KB"},
	)
}

// sweepSpec declares the survival matrix: the SAME generated corpus
// (device profiles, link draws, handover timelines) re-run per
// (controller, scheduler) cell on a fresh topology and workload, so the
// only difference between cells is the policy under test.
func sweepSpec(cfg SweepConfig) (*scenario.Spec, error) {
	ctls := cfg.Controllers
	if len(ctls) == 0 {
		ctls = smapp.ControllerNames()
	}
	scheds := cfg.Schedulers
	if len(scheds) == 0 {
		scheds = mptcp.SchedulerNames()
	}
	mix, err := ParseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}

	type cell struct {
		ctl, sched string
		devs       []*Device
		wl         *Load
	}
	var cells []*cell
	var runs []*scenario.RunSpec
	for _, ctl := range ctls {
		for _, sched := range scheds {
			// One corpus per cell: device ordinals regenerate the same
			// timelines, but each cell needs its own Device values since
			// topologies retain them.
			devs, err := Generate(cfg.Devices, GenConfig{
				Mix: mix, Duration: cfg.Duration, HandoverRate: cfg.HandoverRate,
			})
			if err != nil {
				return nil, err
			}
			wl := pacedLoad(cfg.Bytes, cfg.Duration)
			c := &cell{ctl: ctl, sched: sched, devs: devs, wl: wl}
			cells = append(cells, c)
			runs = append(runs, &scenario.RunSpec{
				Label:    ctl + "/" + sched,
				Topology: Star(devs, 0, netem.LinkConfig{RateBps: cfg.Bottleneck, Delay: 500 * time.Microsecond}),
				Workload: wl,
				Sched:    sched,
				Policy:   ctl,
				Stop: scenario.Stop{
					Horizon: cfg.Duration,
					Poll:    50 * time.Millisecond,
					Until:   wl.Done,
				},
			})
		}
	}

	return &scenario.Spec{
		Name:  "fleetsweep",
		Title: "Fleet policy survival — which controller keeps a mobile fleet moving",
		Desc: fmt.Sprintf("%d devices (%s), %d KB up, handover rate %gx, %v window; %d controllers x %d schedulers",
			cfg.Devices, cfg.Mix, cfg.Bytes>>10, cfg.HandoverRate, cfg.Duration, len(ctls), len(scheds)),
		Runs: runs,
		Render: func(res *stats.Result, _ []*scenario.Run) {
			res.Section("policy survival matrix")
			res.Printf("%-12s %-12s %7s %10s %10s %12s\n",
				"controller", "scheduler", "done", "stall p50", "stall p99", "goodput p50")
			type rowStat struct {
				completed int
				gp50      float64
			}
			best := map[string]struct {
				ctl string
				rowStat
			}{}
			// The survival matrix is also emitted as a structured table
			// (one row per controller/scheduler cell), so workspace diffs
			// compare it table-by-table instead of scraping report text.
			tbl := res.Table("survival",
				"completed", "gap_p50_s", "gap_p99_s", "goodput_p50_mbps", "goodput_p10_mbps")
			for _, c := range cells {
				o := reduce(c.devs, c.wl)
				key := c.ctl + "/" + c.sched
				res.Scalars[key+"_completed"] = float64(o.completed)
				res.Scalars[key+"_gap_p50_s"] = o.stall.Median()
				res.Scalars[key+"_gap_p99_s"] = o.stall.Quantile(0.99)
				res.Scalars[key+"_goodput_p50_mbps"] = o.goodput.Median()
				res.Scalars[key+"_goodput_p10_mbps"] = o.goodput.Quantile(0.10)
				tbl.AddRow(key, float64(o.completed), o.stall.Median(), o.stall.Quantile(0.99),
					o.goodput.Median(), o.goodput.Quantile(0.10))
				res.Printf("%-12s %-12s %4d/%-2d %9.3fs %9.3fs %9.2fMb/s\n",
					c.ctl, c.sched, o.completed, cfg.Devices,
					o.stall.Median(), o.stall.Quantile(0.99), o.goodput.Median())
				r := rowStat{completed: o.completed, gp50: o.goodput.Median()}
				if b, ok := best[c.sched]; !ok || r.completed > b.completed ||
					(r.completed == b.completed && r.gp50 > b.gp50) {
					best[c.sched] = struct {
						ctl string
						rowStat
					}{c.ctl, r}
				}
			}
			res.Section("survivors (most completions, goodput tie-break)")
			for _, sched := range scheds {
				b := best[sched]
				res.Printf("%-12s -> %-12s (%d/%d done, p50 %.2f Mb/s)\n",
					sched, b.ctl, b.completed, cfg.Devices, b.gp50)
			}
		},
	}, nil
}

// Sweep runs the policy-survival matrix (see sweepSpec).
func Sweep(cfg SweepConfig) *stats.Result {
	sp, err := sweepSpec(cfg)
	if err != nil {
		panic(err)
	}
	return scenario.Execute(sp, cfg.Seed)
}
