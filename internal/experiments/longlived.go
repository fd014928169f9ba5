package experiments

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// longLivedConfig parameterises the §4.1 long-lived-connection
// experiment: by default a 180 s NAT timeout against a chat message every
// 10 minutes — the keepalive battle of §4.1.
type longLivedConfig struct {
	Sched       string
	Policy      string        // registered controller; "" = the plain stack (nil policy)
	NATTimeout  time.Duration // middlebox idle timeout (deployed boxes: a few hundred seconds)
	MsgInterval time.Duration // application message cadence (sparser than the NAT timeout)
	Messages    int
	MsgSize     int
	FlapAt      time.Duration // one interface outage, 0 disables
	FlapFor     time.Duration
}

func init() {
	scenario.Scenarios.Register("longlived",
		"long-lived connections (§4.1): chat through a NAT with idle timeouts, smart full-mesh vs plain stack",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := longLivedConfig{
				Sched:  p.Sched(),
				Policy: p.Str("policy", "fullmesh", "path manager (empty = the nil policy, the plain-stack baseline)"),
			}
			cfg.NATTimeout = p.Duration("nat_timeout", 180*time.Second, "NAT idle-entry expiry")
			cfg.MsgInterval = p.Duration("interval", 10*time.Minute, "message interval")
			cfg.Messages = p.Int("messages", 12, "messages per direction", 4)
			cfg.MsgSize = p.Int("msg_size", 2000, "bytes per message")
			cfg.FlapAt = p.Duration("flap_at", 25*time.Minute, "when the primary interface flaps", 15*time.Minute)
			cfg.FlapFor = p.Duration("flap_for", 2*time.Minute, "flap outage length")
			return longLivedSpec(cfg), nil
		})
}

// longLivedSpec declares the §4.1 scenario: a chat-style connection
// through a NAT that expires idle state, with an optional interface
// outage. With the smart full-mesh controller, failed subflows are
// re-established with error-specific backoff and every message is
// eventually delivered; the plain stack loses its only subflow at the
// first expiry and stalls.
func longLivedSpec(cfg longLivedConfig) *scenario.Spec {
	mode := fmt.Sprintf("userspace %q controller", cfg.Policy)
	if cfg.Policy == "" {
		mode = "plain stack (nil policy)"
	}

	p := netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond}
	wl := &scenario.OnOff{Interval: cfg.MsgInterval, Count: cfg.Messages, Size: cfg.MsgSize}

	var events []scenario.Event
	if cfg.FlapAt > 0 {
		events = scenario.FlapClientIface(cfg.FlapAt, cfg.FlapFor, 0, 0)
	}
	horizon := cfg.MsgInterval*time.Duration(cfg.Messages+1) + 5*time.Minute

	run := &scenario.RunSpec{
		Label:    "longlived",
		Topology: scenario.NATPath{P0: p, P1: p, Idle: cfg.NATTimeout, Expiry: netem.ExpiryRST},
		Workload: wl,
		Sched:    cfg.Sched,
		Policy:   cfg.Policy,
		Settle:   time.Millisecond,
		Events:   events,
		Stop:     scenario.Stop{Horizon: horizon},
	}

	return &scenario.Spec{
		Name:  "longlived",
		Title: "§4.1 — smarter long-lived connections",
		Desc: fmt.Sprintf("NAT idle timeout %v (RST on expiry); message every %v; %s",
			cfg.NATTimeout, cfg.MsgInterval, mode),
		Runs: []*scenario.RunSpec{run},
		Render: func(res *stats.Result, runs []*scenario.Run) {
			rt := runs[0]
			delivered := len(wl.Arrivals)
			lat := res.Sample("message delivery latency (s)")
			for i, at := range wl.Arrivals {
				if i < len(wl.SendTimes) {
					lat.Add(time.Duration(at - wl.SendTimes[i]).Seconds())
				}
			}
			res.Scalars["messages_sent"] = float64(len(wl.SendTimes))
			res.Scalars["messages_delivered"] = float64(delivered)
			ctl, _ := rt.Stack.Controller(rt.Conn).(*controller.FullMesh)
			if ctl != nil {
				res.Scalars["reestablishments"] = float64(ctl.Stats.Reestablishments)
				res.Scalars["dismissed"] = float64(ctl.Stats.SubflowsDismissed)
			}
			res.Scalars["nat_expiries"] = float64(rt.Net.NAT.Stats.Expired)
			res.Scalars["live_subflows_at_end"] = float64(len(rt.Conn.Subflows()))

			res.Section("results")
			res.Printf("messages delivered: %d / %d\n", delivered, len(wl.SendTimes))
			if lat.N() > 0 {
				res.Printf("delivery latency: %s\n", lat.Summary("s"))
			}
			res.Printf("NAT state expiries hit: %d; RSTs injected: %d\n",
				rt.Net.NAT.Stats.Expired, rt.Net.NAT.Stats.RSTInjected)
			if ctl != nil {
				res.Printf("controller re-establishments: %d (by errno: %v); dismissed on if-down: %d\n",
					ctl.Stats.Reestablishments, ctl.Stats.RetriesByErrno, ctl.Stats.SubflowsDismissed)
			}
			res.Printf("live subflows at end: %d\n", len(rt.Conn.Subflows()))
		},
	}
}
