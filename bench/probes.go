package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/scenario"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// A unit probe is a tiny driver around exported calls of one layer. It
// runs n operations after its own (untimed) set-up and reports what the
// timed part cost. Probes call nothing unexported and change nothing in
// the layers, so a later change to a layer moves its probe and the
// end-to-end metric the glossary in README.md names beside it.
type unitProbe struct {
	// NS names the host-ns-per-operation metric; Allocs and Bytes name
	// the per-operation heap metrics, "" where the table lists none.
	NS, Allocs, Bytes string
	Run               func(n int) (cost, error)
}

// cost is what n operations took. ops defaults to n; probes whose natural
// unit differs from the loop count (events dispatched, barriers crossed)
// set it.
type cost struct {
	d      time.Duration
	allocs uint64
	bytes  uint64
	ops    int
}

// measure times loop and counts its heap allocations.
func measure(n int, loop func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	loop()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{d: d, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, ops: n}
}

// probeResult is a probe's per-operation medians.
type probeResult struct {
	ns, allocs, bytes float64
}

// runProbe scales n until one repetition lasts at least target, then
// reports the median of reps repetitions at that n.
func runProbe(p unitProbe, target time.Duration, reps int) (probeResult, error) {
	n := 64
	for {
		c, err := p.Run(n)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", p.NS, err)
		}
		if c.d >= target || n >= 1<<26 {
			break
		}
		// Aim a fifth past the target so the next try usually suffices.
		next := int(float64(n) * 1.2 * float64(target) / float64(max(c.d, time.Microsecond)))
		n = min(max(next, n+1), 100*n)
	}
	var ns, allocs, bytes []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		c, err := p.Run(n)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", p.NS, err)
		}
		ops := float64(c.ops)
		ns = append(ns, float64(c.d.Nanoseconds())/ops)
		allocs = append(allocs, float64(c.allocs)/ops)
		bytes = append(bytes, float64(c.bytes)/ops)
	}
	return probeResult{ns: median(ns), allocs: median(allocs), bytes: median(bytes)}, nil
}

var (
	probeSrc = netip.MustParseAddr("10.0.0.1")
	probeDst = netip.MustParseAddr("10.0.0.2")
)

// unitProbes lists every probe, layer by layer.
func unitProbes() []unitProbe {
	ps := []unitProbe{
		{NS: "sim.dispatch_ns", Run: func(n int) (cost, error) { return simDispatch(n, 16) }},
		{NS: "sim.dispatch_deep_ns", Run: func(n int) (cost, error) { return simDispatch(n, 4096) }},
		{NS: "sim.timer_reset_ns", Run: simTimerReset},
		{NS: "sim.barrier_ns", Run: simBarrier},
		{NS: "sim.cross_send_ns", Run: simCrossSend},
		{NS: "seg.pool_getput_ns", Run: segPoolGetPut},
		{NS: "seg.append_wire_ns", Run: segAppendWire},
		{NS: "seg.unmarshal_into_ns", Run: segUnmarshalInto},
		{NS: "netem.link_deliver_ns", Allocs: "netem.link_deliver_allocs", Run: netemLinkDeliver},
		{NS: "netem.ecmp_forward_ns", Allocs: "netem.ecmp_forward_allocs", Run: netemECMPForward},
		{NS: "nlmsg.event_marshal_ns", Run: nlmsgEventMarshal},
		{NS: "nlmsg.event_parse_ns", Run: nlmsgEventParse},
		{NS: "nlmsg.cmd_marshal_ns", Run: nlmsgCmdMarshal},
		{NS: "nlmsg.cmd_parse_ns", Run: nlmsgCmdParse},
		{NS: "scenario.star_host_ns", Allocs: "scenario.star_host_allocs", Bytes: "scenario.star_host_bytes", Run: scenarioStarHost},
		{NS: "fleet.generate_device_ns", Allocs: "fleet.generate_device_allocs", Run: fleetGenerateDevice},
		{NS: "trace.rec_ns", Run: traceRec},
		{NS: "metrics.inc_ns", Run: metricsInc},
	}
	return append(ps, stackProbes()...)
}

// simDispatch prices one event: pop it, run it, and push its successor
// with ScheduleArg, while `pending` events sit in the queue. It runs on a
// one-shard World through an entity clock — the path every workload's
// events take.
func simDispatch(n, pending int) (cost, error) {
	w := sim.NewWorld(1, 1)
	c := w.HostClock(0, "h")
	left := n
	var tick func(any)
	tick = func(a any) {
		if left > 0 {
			left--
			// Unequal periods keep the heap order from degenerating
			// into a FIFO.
			c.AfterArg(time.Microsecond+time.Duration(a.(int)%7)*100*time.Nanosecond, "tick", tick, a)
		}
	}
	periods := make([]any, pending)
	for i := range periods {
		periods[i] = i // boxed once, outside the timed loop
	}
	for i := 0; i < pending; i++ {
		c.AfterArg(time.Microsecond, "tick", tick, periods[i])
	}
	before := w.Processed()
	r := measure(n, func() { w.RunFor(time.Hour) })
	r.ops = int(w.Processed() - before)
	return r, nil
}

// simTimerReset prices re-arming a pending sim.Timer (the RTO pattern:
// every ack moves the deadline) among 64 other pending events.
func simTimerReset(n int) (cost, error) {
	w := sim.NewWorld(1, 1)
	c := w.HostClock(0, "h")
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i+1)*time.Millisecond, "bg", func() {})
	}
	t := sim.NewTimer(c, "rto", func() {})
	t.Reset(200 * time.Millisecond)
	return measure(n, func() {
		for i := 0; i < n; i++ {
			t.Reset(time.Duration(200+i%16) * time.Millisecond)
		}
	}), nil
}

// twoShards builds a 2-shard world with one entity per shard joined by a
// 1 ms crossing, so every interior window is 1 ms long.
func twoShards() (*sim.World, sim.Clock, sim.Clock, error) {
	w := sim.NewWorld(1, 2)
	a, b := w.HostClock(0, "a"), w.HostClock(1, "b")
	w.Crossing("a-b", a, b, time.Millisecond)
	return w, a, b, w.Finalize()
}

// simBarrier prices one shard synchronisation on a 2-shard World whose
// windows are all but empty (one tick per window keeps them from being
// skipped as idle).
func simBarrier(n int) (cost, error) {
	w, a, _, err := twoShards()
	if err != nil {
		return cost{}, err
	}
	var tick func(any)
	tick = func(any) { a.AfterArg(time.Millisecond, "tick", tick, nil) }
	a.AfterArg(0, "tick", tick, nil)
	before := w.RuntimeStats().Barriers
	r := measure(n, func() { w.RunFor(time.Duration(n) * time.Millisecond) })
	r.ops = int(w.RuntimeStats().Barriers - before)
	if r.ops == 0 {
		return r, fmt.Errorf("no barriers crossed")
	}
	return r, nil
}

// simCrossSend prices SendTo across shards: post to the mailbox, drain at
// the next barrier, dispatch on the destination. 256 sends share each
// window, so the barrier itself is amortised.
func simCrossSend(n int) (cost, error) {
	const perWindow = 256
	w, a, b, err := twoShards()
	if err != nil {
		return cost{}, err
	}
	got := 0
	recv := func(any) { got++ }
	windows := (n + perWindow - 1) / perWindow
	var tick func(any)
	tick = func(any) {
		for i := 0; i < perWindow; i++ {
			a.SendTo(b, a.Now().Add(time.Millisecond), "x", recv, nil)
		}
		a.AfterArg(time.Millisecond, "tick", tick, nil)
	}
	a.AfterArg(0, "tick", tick, nil)
	r := measure(n, func() { w.RunFor(time.Duration(windows) * time.Millisecond) })
	r.ops = got
	if got == 0 {
		return r, fmt.Errorf("no cross-shard message arrived")
	}
	return r, nil
}

func segPoolGetPut(n int) (cost, error) {
	seg.Shared.Put(seg.Shared.Get()) // warm
	return measure(n, func() {
		for i := 0; i < n; i++ {
			seg.Shared.Put(seg.Shared.Get())
		}
	}), nil
}

// dataSegment is the hot-path shape: ACK|PSH, one MSS, a DSS mapping with
// a DATA_ACK.
func dataSegment() *seg.Segment {
	return &seg.Segment{
		Tuple:      seg.FourTuple{SrcIP: probeSrc, DstIP: probeDst, SrcPort: 1, DstPort: 2},
		Flags:      seg.ACK | seg.PSH,
		PayloadLen: 1380,
		Options: []seg.Option{&seg.DSS{
			HasDataAck: true, DataAck: 1 << 40,
			HasMap: true, DataSeq: 1 << 41, MapLen: 1380,
		}},
	}
}

func segAppendWire(n int) (cost, error) {
	s := dataSegment()
	buf := make([]byte, 0, 4096)
	var err error
	r := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			buf, err = s.AppendWire(buf[:0])
		}
	})
	return r, err
}

func segUnmarshalInto(n int) (cost, error) {
	wire, err := dataSegment().AppendWire(nil)
	if err != nil {
		return cost{}, err
	}
	into := seg.Shared.Get()
	defer seg.Shared.Put(into)
	r := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = seg.UnmarshalInto(into, wire, probeSrc, probeDst)
		}
	})
	return r, err
}

// sendData pushes one pooled data segment with the given source port into
// fn, then runs the simulator long enough to deliver it.
func sendData(s *sim.Simulator, i int, fn func(*netem.Packet)) {
	sg := seg.Shared.Get()
	sg.Tuple = seg.FourTuple{SrcIP: probeSrc, DstIP: probeDst, SrcPort: uint16(1000 + i), DstPort: 80}
	sg.Flags = seg.ACK | seg.PSH
	sg.PayloadLen = 1380
	d := sg.ScratchDSS()
	d.HasMap, d.DataSeq, d.MapLen = true, uint64(i), 1380
	fn(netem.NewPacket(sg))
	s.RunFor(2 * time.Millisecond)
}

// netemLinkDeliver prices Host.Send → Link → Host.Input for one segment.
func netemLinkDeliver(n int) (cost, error) {
	s := sim.New(1)
	delivered := 0
	rx := netem.NewHost(s, "rx")
	rx.SetHandler(func(p *netem.Packet) { delivered++; p.Release() })
	tx := netem.NewHost(s, "tx")
	wire := netem.NewLink(s, "wire", rx, netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond})
	tx.AddIface("eth0", probeSrc, wire)
	sendData(s, 0, tx.Send) // warm the pools
	r := measure(n, func() {
		for i := 0; i < n; i++ {
			sendData(s, i, tx.Send)
		}
	})
	if delivered != n+1 {
		return r, fmt.Errorf("delivered %d of %d", delivered, n+1)
	}
	return r, nil
}

// netemECMPForward is netemLinkDeliver with a Router in front that hashes
// every flow onto one of four equal-cost links; the difference between
// the two is flow hashing and route lookup.
func netemECMPForward(n int) (cost, error) {
	s := sim.New(1)
	delivered := 0
	rx := netem.NewHost(s, "rx")
	rx.SetHandler(func(p *netem.Packet) { delivered++; p.Release() })
	r := netem.NewRouter(s, "r", 7)
	var links []*netem.Link
	for i := 0; i < 4; i++ {
		links = append(links, netem.NewLink(s, fmt.Sprintf("p%d", i), rx,
			netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond}))
	}
	r.AddRoute(probeDst, links...)
	sendData(s, 0, r.Input)
	c := measure(n, func() {
		for i := 0; i < n; i++ {
			sendData(s, i, r.Input)
		}
	})
	if delivered != n+1 {
		return c, fmt.Errorf("delivered %d of %d", delivered, n+1)
	}
	return c, nil
}

func probeEvent() *nlmsg.Event {
	return &nlmsg.Event{
		Kind: nlmsg.EvTimeout, Token: 0xdead, RTO: 3200 * time.Millisecond,
		Backoffs: 4, HasTuple: true,
		Tuple: seg.FourTuple{SrcIP: probeSrc, DstIP: probeDst, SrcPort: 1, DstPort: 2},
	}
}

func probeCommand() *nlmsg.Command {
	return &nlmsg.Command{
		Kind: nlmsg.CmdCreateSubflow, Seq: 9, Pid: 1, Token: 0xdead,
		Tuple: seg.FourTuple{SrcIP: probeSrc, DstIP: probeDst, SrcPort: 0, DstPort: 80},
	}
}

func nlmsgEventMarshal(n int) (cost, error) {
	ev := probeEvent()
	buf := ev.AppendMarshal(nlmsg.Wire.Get()[:0], 0, 1)
	r := measure(n, func() {
		for i := 0; i < n; i++ {
			buf = ev.AppendMarshal(buf[:0], uint32(i), 1)
		}
	})
	nlmsg.Wire.Put(buf)
	return r, nil
}

func nlmsgEventParse(n int) (cost, error) {
	wire := probeEvent().AppendMarshal(nil, 1, 1)
	var m nlmsg.Message
	var out nlmsg.Event
	var err error
	r := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			if _, err = nlmsg.UnmarshalInto(wire, &m); err == nil {
				err = nlmsg.ParseEventInto(&m, &out)
			}
		}
	})
	return r, err
}

func nlmsgCmdMarshal(n int) (cost, error) {
	cmd := probeCommand()
	buf := cmd.AppendMarshal(nlmsg.Wire.Get()[:0])
	r := measure(n, func() {
		for i := 0; i < n; i++ {
			buf = cmd.AppendMarshal(buf[:0])
		}
	})
	nlmsg.Wire.Put(buf)
	return r, nil
}

func nlmsgCmdParse(n int) (cost, error) {
	wire := probeCommand().AppendMarshal(nil)
	var m nlmsg.Message
	var out nlmsg.Command
	var err error
	r := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			if _, err = nlmsg.UnmarshalInto(wire, &m); err == nil {
				err = nlmsg.ParseCommandInto(&m, &out)
			}
		}
	})
	return r, err
}

// scenarioStarHost prices one client of the star topology (host, two
// access links, routes) — what churn and fleet-like set-ups pay per
// connection before any stack exists.
func scenarioStarHost(n int) (cost, error) {
	star := scenario.Star{
		Clients: n, Ifaces: 2, Servers: 1,
		Access:     netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond},
		Bottleneck: netem.LinkConfig{RateBps: 200e6, Delay: 500 * time.Microsecond},
	}
	s := sim.New(1)
	var net *scenario.Net
	r := measure(n, func() { net = star.Build(s, 1) })
	if len(net.Clients) != n {
		return r, fmt.Errorf("built %d of %d clients", len(net.Clients), n)
	}
	return r, nil
}

func fleetGenerateDevice(n int) (cost, error) {
	mix, err := fleet.ParseMix(fleet.DefaultMix)
	if err != nil {
		return cost{}, err
	}
	cfg := fleet.GenConfig{Mix: mix, Duration: 20 * time.Second, HandoverRate: 1}
	var devs []*fleet.Device
	r := measure(n, func() { devs, err = fleet.Generate(n, cfg) })
	if err == nil && len(devs) != n {
		err = fmt.Errorf("generated %d of %d devices", len(devs), n)
	}
	return r, err
}

func traceRec(n int) (cost, error) {
	sh := trace.New(1 << 12).Shard("bench")
	return measure(n, func() {
		for i := 0; i < n; i++ {
			sh.Rec(sim.Time(i), trace.KSend, 1, uint64(i), 1380, uint64(i), trace.FRetrans)
		}
	}), nil
}

func metricsInc(n int) (cost, error) {
	reg := metrics.New(1)
	c := reg.Counter("bench_counter", 0)
	h := reg.HistogramLinear("bench_hist", 8, 0)
	return measure(n, func() {
		for i := 0; i < n; i++ {
			c.Inc()
			h.Observe(uint64(i & 7))
		}
	}), nil
}
