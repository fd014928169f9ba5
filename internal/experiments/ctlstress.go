package experiments

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/nlmsg"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
)

// ctlStressConfig parameterises the control-plane stress scenario: N
// long-lived connections × M subflows with a fullmesh controller attached
// to each, while per-client interface flaps churn the subflow set. The
// measurement is policy-decision latency — the delay from a kernel event
// being emitted to the controller's resulting command being applied back
// in the kernel — under the immediate and the coalesced delivery modes.
// The default is bench-sized: 8 clients flapping their second interface
// every 150 ms for 2 s.
type ctlStressConfig struct {
	Sched        string
	Policy       string        // the subflow controller under stress
	Conns        int           // concurrent connections, one client host each
	Subflows     int           // interfaces per client (≥2; iface 1 is flapped)
	Servers      int           // server hosts, dialed round-robin
	BytesPerConn int           // initial payload (the connection stays open after)
	FlapEvery    time.Duration // per-client churn period
	FlapDown     time.Duration // outage length within each period
	Window       time.Duration // coalescing flush window of the coalesced cell
	Queue        int           // pending-event queue bound
	Horizon      time.Duration // simulation cutoff
}

func init() {
	scenario.Scenarios.Register("ctlstress",
		"control-plane stress: flap-driven subflow churn under a fullmesh controller, measuring event→command decision latency",
		func(p *scenario.Params) (*scenario.Spec, error) {
			cfg := ctlStressConfig{
				Sched:        p.Sched(),
				Policy:       p.Str("policy", "fullmesh", "registered subflow controller under stress"),
				Conns:        p.Int("conns", 8, "concurrent connections, one client host each", 4),
				Subflows:     p.Int("subflows", 2, "interfaces per client, >= 2; iface 1 is flapped"),
				Servers:      p.Int("servers", 1, "server hosts, dialed round-robin"),
				BytesPerConn: p.Int("kb", 64, "initial payload per connection in KB", 32) << 10,
				FlapEvery:    p.Duration("flap_every", 150*time.Millisecond, "per-client churn period"),
				FlapDown:     p.Duration("flap_down", 60*time.Millisecond, "outage length within each period"),
				Window:       p.Duration("window", 200*time.Microsecond, "coalescing flush window of the coalesced cell"),
				Queue:        p.Int("queue", core.DefaultCtlQueue, "pending-event queue bound, drop-oldest overflow"),
				Horizon:      2 * time.Second,
			}
			if p.Smoke() {
				cfg.Horizon = time.Second
			}
			return ctlStressSpec(cfg)
		})
}

// ctlStressSpec declares two runs of the same churn workload on fresh star
// topologies: "immediate" delivers one frame per event (the default, which
// every golden runs: see DESIGN.md "Two delivery modes, one knob");
// "coalesced" batches events per flush window into pooled multi-message
// frames. Every scalar is simulated — no wall-clock output — so the run is
// byte-identical at any shard count.
func ctlStressSpec(cfg ctlStressConfig) (*scenario.Spec, error) {
	if cfg.Subflows < 2 {
		return nil, fmt.Errorf("ctlstress: need subflows >= 2 (iface 1 is flapped), got %d", cfg.Subflows)
	}
	star := stressStar(cfg.Conns, cfg.Subflows, cfg.Servers)
	// Per-client flap schedule: client i's second interface goes down at
	// 50ms + i*7ms and then every FlapEvery, each outage FlapDown long.
	// The 7 ms stagger keeps the flap bursts from phase-locking across
	// clients while staying deterministic. The flaps are counted first so
	// the schedule is allocated once, not grown by append.
	start := func(i int) time.Duration { return 50*time.Millisecond + time.Duration(i)*7*time.Millisecond }
	flaps := 0
	for i := 0; i < cfg.Conns; i++ {
		for at := start(i); at+cfg.FlapDown < cfg.Horizon; at += cfg.FlapEvery {
			flaps++
		}
	}
	events := make([]scenario.Event, 0, 2*flaps)
	for i := 0; i < cfg.Conns; i++ {
		for at := start(i); at+cfg.FlapDown < cfg.Horizon; at += cfg.FlapEvery {
			events = append(events, scenario.FlapClientIface(at, cfg.FlapDown, i, 1)...)
		}
	}

	windows := []struct {
		label  string
		window time.Duration
	}{{"immediate", 0}}
	if cfg.Window > 0 {
		windows = append(windows, struct {
			label  string
			window time.Duration
		}{"coalesced", cfg.Window})
	}
	var runs []*scenario.RunSpec
	for _, w := range windows {
		wl := &ctlStressLoad{Bytes: cfg.BytesPerConn, Window: w.window, Queue: cfg.Queue}
		runs = append(runs, &scenario.RunSpec{
			Label:       w.label,
			Topology:    star,
			Workload:    wl,
			Sched:       cfg.Sched,
			Policy:      cfg.Policy,
			PolicyCfg:   smapp.ControllerConfig{Subflows: cfg.Subflows},
			StackConfig: wl.tapStack,
			Events:      events,
			Stop:        scenario.Stop{Horizon: cfg.Horizon},
		})
	}

	return &scenario.Spec{
		Name:  "ctlstress",
		Title: "Control-plane stress — decision latency under subflow churn",
		Desc: fmt.Sprintf("%d conns x %d subflows, flap every %v (down %v); coalescing window %v",
			cfg.Conns, cfg.Subflows, cfg.FlapEvery, cfg.FlapDown, cfg.Window),
		Runs: runs,
		Render: func(res *stats.Result, runs []*scenario.Run) {
			res.Section("decision latency (event emitted -> command applied)")
			res.Printf("%-10s %6s %9s %9s %8s %9s %9s %7s %7s %7s %5s\n",
				"mode", "n", "p50", "p99", "frames", "events", "coalesce", "drops", "flush", "cmds", "qhw")
			for _, rt := range runs {
				wl := rt.Spec.Workload.(*ctlStressLoad)
				lat := &stats.Sample{}
				var frames, commands uint64
				for _, tp := range wl.taps {
					lat.Add(tp.samples...)
					frames += tp.frames
					commands += tp.commands
				}
				var sent, coalesced, dropped, flushes, queueHW uint64
				for _, st := range rt.Stacks {
					if st.PM == nil {
						continue // policy=kernel: no Netlink path to count
					}
					sent += st.PM.EventsSent
					coalesced += st.PM.EventsCoalesced
					dropped += st.PM.EventsDropped
					flushes += st.PM.Flushes
					// Queue high-water is a depth, not a count: the worst
					// backlog any one client's queue reached.
					queueHW = max(queueHW, st.PM.QueueHighWater)
				}
				var p50, p99 float64
				if lat.N() > 0 {
					p50 = lat.Quantile(0.5)
					p99 = lat.Quantile(0.99)
				}
				key := rt.Spec.Label
				res.Scalars[key+"_decision_p50_us"] = p50
				res.Scalars[key+"_decision_p99_us"] = p99
				res.Scalars[key+"_decision_n"] = float64(lat.N())
				res.Scalars[key+"_event_frames"] = float64(frames)
				res.Scalars[key+"_events_sent"] = float64(sent)
				res.Scalars[key+"_events_coalesced"] = float64(coalesced)
				res.Scalars[key+"_events_dropped"] = float64(dropped)
				res.Scalars[key+"_flushes"] = float64(flushes)
				res.Scalars[key+"_ctl_queue_hw"] = float64(queueHW)
				res.Printf("%-10s %6d %7.1fus %7.1fus %8d %9d %9d %7d %7d %7d %5d\n",
					key, lat.N(), p50, p99, frames, sent,
					coalesced, dropped, flushes, commands, queueHW)
				// The headline scalars track the coalesced cell when it
				// exists (the last run), the immediate cell otherwise.
				res.Scalars["decision_p50_us"] = p50
				res.Scalars["decision_p99_us"] = p99
				res.Scalars["decision_n"] = float64(lat.N())
				res.Scalars["events_coalesced"] = float64(coalesced)
				res.Scalars["events_dropped"] = float64(dropped)
				res.Scalars["ctl_queue_hw"] = float64(queueHW)
			}
		},
	}, nil
}

// ctlStressLoad is the churn workload: every client dials once with the
// run's policy bound and streams Bytes without closing, so the connection
// (and its controller) outlives the transfer and keeps reacting to
// interface flaps for the whole horizon. Each client's Netlink transport
// is tap-wrapped to timestamp stimulus events and the controller commands
// they provoke.
type ctlStressLoad struct {
	Bytes  int
	Window time.Duration // smapp.Config.CtlFlush (0 = immediate delivery)
	Queue  int           // smapp.Config.CtlQueue

	taps []*ctlTap // one per client, in client order
}

// tapStack is the run's RunSpec.StackConfig hook: client i's stack gets a
// tap-wrapped simulated Netlink transport on the client's own clock (its
// shard) and the run's coalescing window.
func (w *ctlStressLoad) tapStack(rt *scenario.Run, i int, cfg *smapp.Config) {
	cclk := rt.ClientClock(i)
	tap := &ctlTap{clk: cclk}
	base := core.NewSimTransport(cclk)
	cfg.Transport = &core.Transport{
		ToUser:   &tapPipe{inner: base.ToUser, onSend: tap.eventFrame},
		ToKernel: &tapPipe{inner: base.ToKernel, onRecv: tap.commandFrame},
	}
	cfg.CtlFlush, cfg.CtlQueue = w.Window, w.Queue
	w.taps = append(w.taps, tap)
}

// Server implements scenario.Workload: one sink per accepted connection.
func (w *ctlStressLoad) Server(rt *scenario.Run) {
	rt.FanOutListen(func(_ int, sclk sim.Clock, c *mptcp.Connection) {
		c.SetCallbacks(app.NewSink(sclk, uint64(w.Bytes), nil).Callbacks())
	})
}

// Client implements scenario.Workload.
func (w *ctlStressLoad) Client(rt *scenario.Run) {
	rt.FanOutDial("ctlstress.dial", func(cclk sim.Clock) mptcp.ConnCallbacks {
		return app.NewSource(cclk, w.Bytes, false).Callbacks()
	})
}

// ctlTap observes one client's Netlink frames in both directions and turns
// them into decision-latency samples: a stimulus event (established, a
// subflow loss, an interface transition) stamps lastStim with the event's
// emission time — Event.At is set when the kernel emits, before any
// coalescing queue delay — and each subsequent policy command applied in
// the kernel samples now−lastStim. Frames are parsed in place with reused
// scratch (the tap runs synchronously inside Send/receive, inside the
// pipe's ownership window), so the hot path stays allocation-free apart
// from the sample slice.
type ctlTap struct {
	clk sim.Clock

	msg nlmsg.Message
	ev  nlmsg.Event
	cmd nlmsg.Command

	lastStim time.Duration
	hasStim  bool
	samples  []float64 // event→command latency, µs
	frames   uint64    // kernel→user event frames (coalescing merges these)
	commands uint64    // policy commands applied (create/remove/backup)
}

// eventFrame taps kernel→user frames at Send time.
func (t *ctlTap) eventFrame(b []byte) {
	t.frames++
	for off := 0; off < len(b); {
		n, err := nlmsg.UnmarshalInto(b[off:], &t.msg)
		if err != nil {
			return
		}
		off += n
		if t.msg.Cmd == nlmsg.ReplyAck || t.msg.Cmd == nlmsg.ReplyInfo {
			continue
		}
		if nlmsg.ParseEventInto(&t.msg, &t.ev) != nil {
			continue
		}
		switch t.ev.Kind {
		case nlmsg.EvEstablished, nlmsg.EvSubClosed, nlmsg.EvLocalAddrUp, nlmsg.EvLocalAddrDown:
			t.lastStim, t.hasStim = t.ev.At, true
		}
	}
}

// commandFrame taps user→kernel frames at delivery time — the moment the
// kernel applies the command.
func (t *ctlTap) commandFrame(b []byte) {
	for off := 0; off < len(b); {
		n, err := nlmsg.UnmarshalInto(b[off:], &t.msg)
		if err != nil {
			return
		}
		off += n
		if nlmsg.ParseCommandInto(&t.msg, &t.cmd) != nil {
			continue
		}
		switch t.cmd.Kind {
		case nlmsg.CmdCreateSubflow, nlmsg.CmdRemoveSubflow, nlmsg.CmdSetBackup:
			t.commands++
			if t.hasStim {
				d := time.Duration(t.clk.Now()) - t.lastStim
				t.samples = append(t.samples, float64(d)/float64(time.Microsecond))
			}
		}
	}
}

// tapPipe wraps a core.Pipe with observation hooks on either end. The
// hooks run inside the pipe's buffer-ownership window (onSend before the
// frame is handed over, onRecv before the real receiver), so they may
// parse the frame in place but must not retain it.
type tapPipe struct {
	inner  core.Pipe
	onSend func([]byte)
	onRecv func([]byte)
}

// Send implements core.Pipe.
func (p *tapPipe) Send(b []byte) {
	if p.onSend != nil {
		p.onSend(b)
	}
	p.inner.Send(b)
}

// SetReceiver implements core.Pipe.
func (p *tapPipe) SetReceiver(fn func(b []byte)) {
	if p.onRecv == nil {
		p.inner.SetReceiver(fn)
		return
	}
	p.inner.SetReceiver(func(b []byte) {
		p.onRecv(b)
		fn(b)
	})
}
