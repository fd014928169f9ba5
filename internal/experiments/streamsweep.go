package experiments

import (
	"fmt"
	"time"

	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// StreamSweepConfig parameterises the two sweeps of the §4.3 streaming
// workload: ctlsweep (one curve per subflow controller) and schedsweep
// (one curve per packet scheduler).
type StreamSweepConfig struct {
	Seed      int64
	Sched     string        // ctlsweep: packet scheduler of every run (schedsweep sweeps it)
	Names     []string      // swept registered names; empty sweeps every one
	Loss      float64       // loss ratio on the primary path
	Blocks    int           // blocks per run
	Period    time.Duration // one block per period
	BlockSize int
	LossAt    time.Duration // loss starts after this settle time
}

// DefaultStreamSweep sweeps every registered name over the §4.3 streaming
// workload at 30 % loss.
func DefaultStreamSweep() StreamSweepConfig {
	return StreamSweepConfig{
		Seed:      1,
		Loss:      0.30,
		Blocks:    120,
		Period:    time.Second,
		BlockSize: 64 << 10,
		LossAt:    time.Second,
	}
}

// streamSweep is one sweep of the streaming workload along a registry:
// what the swept dimension is called, where its names come from, and —
// through single — which streamRun argument a curve's name feeds.
type streamSweep struct {
	name    string // registered scenario
	noun    string // "controller" / "scheduler": report headers, the list parameter noun+"s"
	width   int    // summary column width
	about   string // registry description
	listDoc string // what the list parameter sweeps
	title   string
	tail    string // report description suffix

	single string          // the common parameter of the swept dimension: "policy" or "sched"
	names  func() []string // every registered name
	plain  string          // extra reference curve on the in-kernel full mesh ("" = none)
}

// ctlSweep is the controller-space analogue of schedSweep: every policy
// selected purely by registry name through the smapp facade, plus the
// in-kernel full mesh as the reference curve. The sweep makes the
// policy/workload fit visible: stream is built for this workload, backup
// and fullmesh recover more slowly, and refresh/ndiffports — whose extra
// subflows all share the lossy primary interface — actively hurt,
// spreading blocks across many RTO-prone subflows.
var ctlSweep = streamSweep{
	name: "ctlsweep", noun: "controller", width: 12,
	about:   "controller sweep: the §4.3 streaming workload once per registered subflow controller, plus the plain stack",
	listDoc: "swept subflow controllers (default: every registered one + plain)",
	title:   "Controller sweep — §4.3 streaming workload per subflow controller",
	single:  "policy",
	names:   smapp.ControllerNames,
	plain:   "none",
}

// schedSweep is the sweep the scheduler-comparison literature (Paasch et
// al., CSWS'14) performs across policies, under the in-kernel full-mesh
// path manager: lowest-rtt is the kernel default, round-robin the classic
// alternative, redundant the latency-optimal bound, and weighted-rtt the
// probabilistic middle ground. It has no controller dimension; the policy
// parameter is consumed and ignored so blanket overrides (`mpexp all
// -controller X`) pass through.
var schedSweep = streamSweep{
	name: "schedsweep", noun: "scheduler", width: 14,
	about:   "scheduler sweep: the §4.3 streaming workload once per registered packet scheduler",
	listDoc: "swept packet schedulers (default: every registered one)",
	title:   "Scheduler sweep — §4.3 streaming workload per scheduler",
	tail:    "; full-mesh PM",
	single:  "sched",
	names:   mptcp.SchedulerNames,
}

func init() {
	for _, sw := range []streamSweep{ctlSweep, schedSweep} {
		scenario.Register(sw.name, sw.about, func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := DefaultStreamSweep()
			// Both sweeps consume both common parameters; sw.single is the
			// one that narrows the sweep to a single name.
			common := map[string]string{"sched": p.Str("sched", ""), "policy": p.Str("policy", "")}
			cfg.Sched = common["sched"]
			if one := common[sw.single]; one != "" {
				cfg.Names = []string{one}
			}
			cfg.Names = p.Strings(sw.noun+"s", cfg.Names)
			cfg.Loss = p.Float("loss", cfg.Loss)
			cfg.Blocks = p.Int("blocks", cfg.Blocks)
			if p.Bool("smoke", false) {
				cfg.Blocks = 10
			}
			return sw.spec(cfg), nil
		})
		scenario.RegisterParams(sw.name,
			scenario.ParamDoc{Key: sw.noun + "s", Type: "list", Desc: sw.listDoc},
			scenario.ParamDoc{Key: "loss", Type: "float", Default: "0.30", Desc: "primary-path loss ratio"},
			scenario.ParamDoc{Key: "blocks", Type: "int", Default: "120", Desc: "blocks per " + sw.noun},
		)
	}
}

// spec declares the sweep: the paper's streaming workload (two 5 Mbps /
// 10 ms paths, one 64 KB block per second) once per swept name, comparing
// the block-completion-time distributions.
func (sw streamSweep) spec(cfg StreamSweepConfig) *scenario.Spec {
	curves := cfg.Names
	if len(curves) == 0 {
		curves = sw.names()
	}
	if sw.plain != "" {
		curves = append(append([]string(nil), curves...), sw.plain)
	}
	streamCfg := Fig2bConfig{
		Sched:     cfg.Sched,
		Blocks:    cfg.Blocks,
		Period:    cfg.Period,
		BlockSize: cfg.BlockSize,
		LossAt:    cfg.LossAt,
	}
	var runs []*scenario.RunSpec
	for _, name := range curves {
		c, policy := streamCfg, name
		if sw.single == "sched" {
			c.Sched, policy = name, ""
		} else if name == sw.plain {
			policy = ""
		}
		runs = append(runs, streamRun(c, cfg.Loss, policy, name))
	}
	return &scenario.Spec{
		Name:  sw.name,
		Title: sw.title,
		Desc: fmt.Sprintf("2 x 5 Mbps, 10 ms paths; %d B block every %v; %d blocks; %.0f%% loss%s",
			cfg.BlockSize, cfg.Period, cfg.Blocks, cfg.Loss*100, sw.tail),
		Runs: runs,
		Render: func(res *stats.Result, _ []*scenario.Run) {
			res.Section("CDF of block completion time (seconds) per " + sw.noun)
			res.RenderCDFs(curves...)

			res.Section("summary")
			res.Printf("%-*s %8s %8s %8s %8s\n", sw.width, sw.noun, "median", "p90", "p99", "max")
			for _, name := range curves {
				s := res.Samples[name]
				res.Printf("%-*s %7.2fs %7.2fs %7.2fs %7.2fs\n",
					sw.width, name, s.Median(), s.Quantile(0.9), s.Quantile(0.99), s.Max())
				res.Scalars[name+"_median_s"] = s.Median()
				res.Scalars[name+"_p90_s"] = s.Quantile(0.9)
			}
		},
	}
}
