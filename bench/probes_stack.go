package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/pm"
	"repro/internal/scenario"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/tcp"
)

// stackProbes lists the probes of the protocol and control-plane layers.
func stackProbes() []unitProbe {
	ps := []unitProbe{
		{NS: "tcp.seg_ack_ns", Allocs: "tcp.seg_ack_allocs", Run: tcpSegAck},
		{NS: "tcp.handshake_ns", Allocs: "tcp.handshake_allocs", Run: tcpHandshake},
		{NS: "mptcp.inorder_seg_ns", Run: func(n int) (cost, error) { return mptcpTransfer(n, false) }},
		{NS: "mptcp.ooo_seg_ns", Allocs: "mptcp.ooo_seg_allocs", Run: func(n int) (cost, error) { return mptcpTransfer(n, true) }},
		{NS: "mptcp.conn_open_ns", Allocs: "mptcp.conn_open_allocs", Run: mptcpConnOpen},
		{NS: "mptcp.join_ns", Allocs: "mptcp.join_allocs", Run: mptcpJoin},
		{NS: "core.event_deliver_ns", Allocs: "core.event_deliver_allocs", Run: func(n int) (cost, error) { return coreEvents(n, 0) }},
		{NS: "core.coalesced_event_ns", Run: func(n int) (cost, error) { return coreEvents(n, 200*time.Microsecond) }},
		{NS: "core.cmd_apply_ns", Allocs: "core.cmd_apply_allocs", Run: coreCmdApply},
		{NS: "smapp.stack_new_ns", Allocs: "smapp.stack_new_allocs", Bytes: "smapp.stack_new_bytes", Run: smappStackNew},
		{NS: "smapp.dial_ns", Allocs: "smapp.dial_allocs", Run: smappDial},
	}
	for _, name := range []string{"lowest-rtt", "round-robin", "redundant", "weighted-rtt"} {
		ps = append(ps, unitProbe{NS: "mptcp.pick_ns." + name,
			Run: func(n int) (cost, error) { return mptcpPick(n, name) }})
	}
	for _, name := range []string{"fullmesh", "backup", "stream", "refresh", "ndiffports"} {
		p := unitProbe{NS: "controller.event_ns." + name,
			Run: func(n int) (cost, error) { return controllerEvents(n, name) }}
		if name == "fullmesh" {
			p.Allocs = "controller.event_allocs.fullmesh"
		}
		ps = append(ps, p)
	}
	return ps
}

// --- tcp: two Subflows back to back over a fixed-delay pipe ---

// nopOwner accepts every handshake and ignores every callback.
type nopOwner struct{}

func (nopOwner) HandshakeOptions(*tcp.Subflow, tcp.Stage) []seg.Option { return nil }
func (nopOwner) HandshakeAccept(*tcp.Subflow, *seg.Segment, tcp.Stage) tcp.Verdict {
	return tcp.Accept
}
func (nopOwner) OnEstablished(*tcp.Subflow)                 {}
func (nopOwner) OnSegment(*tcp.Subflow, *seg.Segment, bool) {}
func (nopOwner) CurrentDataAck() (uint64, bool)             { return 0, false }
func (nopOwner) OnAckAdvance(*tcp.Subflow, []*tcp.Chunk)    {}
func (nopOwner) OnTimeout(*tcp.Subflow, time.Duration, int) {}
func (nopOwner) OnClosed(*tcp.Subflow, tcp.Errno)           {}

const pipeDelay = 100 * time.Microsecond

// subflowPair wires two subflows through a lossless pipe. Segments travel
// by pointer and the receiving side retires them, like mptcp.Endpoint.
func subflowPair(s *sim.Simulator, port uint16) (a, b *tcp.Subflow) {
	tup := seg.FourTuple{SrcIP: probeSrc, DstIP: probeDst, SrcPort: port, DstPort: 80}
	deliver := func(to **tcp.Subflow) func(any) {
		return func(x any) {
			sg := x.(*seg.Segment)
			(*to).HandleSegment(sg)
			seg.Shared.Put(sg)
		}
	}
	toB, toA := deliver(&b), deliver(&a)
	a = tcp.NewSubflow(s, tcp.Config{}, tup, func(sg *seg.Segment) { s.AfterArg(pipeDelay, "wire", toB, sg) }, nopOwner{})
	b = tcp.NewSubflow(s, tcp.Config{}, tup.Reverse(), func(sg *seg.Segment) { s.AfterArg(pipeDelay, "wire", toA, sg) }, nopOwner{})
	return a, b
}

// tcpSegAck prices one data segment and its acknowledgement: Push on the
// sender, HandleSegment on the receiver, the ack back. Eight segments (a
// burst the initial window admits) share each simulator run.
func tcpSegAck(n int) (cost, error) {
	const burst = 8
	s := sim.New(1)
	a, b := subflowPair(s, 40000)
	a.Connect()
	s.RunFor(10 * pipeDelay)
	if !a.Established() || !b.Established() {
		return cost{}, fmt.Errorf("pair did not establish")
	}
	var ds uint64
	push := func(k int) {
		for i := 0; i < k; i++ {
			a.Push(ds, 1380, false)
			ds += 1380
		}
		s.RunFor(50 * pipeDelay)
	}
	push(burst) // warm pools and the RTT estimate
	r := measure(n, func() {
		for left := n; left > 0; left -= burst {
			push(min(burst, left))
		}
	})
	if a.Flight() != 0 {
		return r, fmt.Errorf("%d bytes still in flight", a.Flight())
	}
	return r, nil
}

// tcpHandshake prices a subflow's life without data: construct both ends,
// three-way handshake, close both ways.
func tcpHandshake(n int) (cost, error) {
	s := sim.New(1)
	failed := 0
	r := measure(n, func() {
		for i := 0; i < n; i++ {
			a, b := subflowPair(s, uint16(1024+i%60000))
			a.Connect()
			s.RunFor(10 * pipeDelay)
			if !a.Established() || !b.Established() {
				failed++
			}
			a.Close()
			b.Close()
			s.RunFor(10 * pipeDelay)
		}
	})
	if failed > 0 {
		return r, fmt.Errorf("%d of %d handshakes failed", failed, n)
	}
	return r, nil
}

// --- mptcp ---

// mptcpPick prices Scheduler.Pick over four stub subflows: two regular
// ones with room, one window-starved, one backup.
func mptcpPick(n int, name string) (cost, error) {
	factory, err := mptcp.LookupScheduler(name)
	if err != nil {
		return cost{}, err
	}
	stub := func(port uint16, backup bool, srtt time.Duration, wnd int) *tcp.Subflow {
		return tcp.NewStubSubflow(tcp.StubState{
			Tuple: seg.FourTuple{SrcPort: port}, Backup: backup, Established: true, SRTT: srtt, Window: wnd,
		})
	}
	sfs := []*tcp.Subflow{
		stub(1, false, 40*time.Millisecond, 1<<20),
		stub(2, false, 10*time.Millisecond, 1<<20),
		stub(3, false, time.Millisecond, 0),
		stub(4, true, 5*time.Millisecond, 1<<20),
	}
	sched := factory(rand.New(rand.NewSource(1)))
	picked := 0
	r := measure(n, func() {
		for i := 0; i < n; i++ {
			if sched.Pick(sfs, 1380) != nil {
				picked++
			}
		}
	})
	if picked != n {
		return r, fmt.Errorf("picked %d of %d", picked, n)
	}
	return r, nil
}

// mpRig is a two-path client and server, endpoint to endpoint.
type mpRig struct {
	s        *sim.Simulator
	net      *scenario.Net
	cep, sep *mptcp.Endpoint
	rcvd     uint64 // bytes the server received in order, all connections
}

func newMPRig(p0, p1 netem.LinkConfig, cfg mptcp.Config, clientPM mptcp.PathManager) *mpRig {
	r := newServerRig(p0, p1, cfg)
	r.cep = mptcp.NewEndpoint(r.net.Clients[0].Host, cfg, clientPM)
	return r
}

// newServerRig builds the topology and the listening server only; the
// caller attaches its own client stack.
func newServerRig(p0, p1 netem.LinkConfig, cfg mptcp.Config) *mpRig {
	r := &mpRig{s: sim.New(1)}
	r.net = scenario.TwoPath{P0: p0, P1: p1}.Build(r.s, 1)
	r.sep = mptcp.NewEndpoint(r.net.Server, cfg, nil)
	r.sep.Listen(80, func(c *mptcp.Connection) {
		var last uint64
		c.SetCallbacks(mptcp.ConnCallbacks{
			OnData:      func(_ *mptcp.Connection, total uint64) { r.rcvd += total - last; last = total },
			OnPeerClose: func(c *mptcp.Connection) { c.Close() },
		})
	})
	return r
}

// connect dials from the first client address and runs until established.
func (r *mpRig) connect() (*mptcp.Connection, error) {
	c, err := r.cep.Connect(r.net.Clients[0].Addrs[0], r.net.ServerAddr, 80, mptcp.ConnCallbacks{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 100 && !c.Established(); i++ {
		r.s.RunFor(time.Millisecond)
	}
	if !c.Established() {
		return nil, fmt.Errorf("connection did not establish")
	}
	return c, nil
}

// fat is a path that never drops: the probes price protocol work, not
// loss recovery.
func fat(delay time.Duration) netem.LinkConfig {
	return netem.LinkConfig{RateBps: 1e9, Delay: delay, QueueCap: 1 << 16}
}

// mptcpTransfer prices one MSS-sized segment end to end through two
// endpoints: scheduling, the subflow, the links, reassembly and the
// acks. In order it uses one subflow; reordered it stripes round-robin
// over a 10 ms and a 40 ms path, so about half the segments wait in the
// out-of-order queue. A 128 KB receive window (bulk's bandwidth-delay
// product) bounds the flight: on a lossless fat path the window would
// otherwise grow to megabytes, and the sender's per-ack work with it.
func mptcpTransfer(n int, reorder bool) (cost, error) {
	var r *mpRig
	want := 1
	cfg := mptcp.Config{TCP: tcp.Config{RcvWnd: 128 << 10}}
	if reorder {
		cfg.Scheduler = "round-robin"
		r = newMPRig(fat(10*time.Millisecond), fat(40*time.Millisecond), cfg, pm.NewFullMesh())
		want = 2
	} else {
		r = newMPRig(fat(time.Millisecond), fat(time.Millisecond), cfg, nil)
	}
	c, err := r.connect()
	if err != nil {
		return cost{}, err
	}
	r.s.RunFor(200 * time.Millisecond)
	if got := len(c.Subflows()); got != want {
		return cost{}, fmt.Errorf("%d subflows, want %d", got, want)
	}
	total := uint64(n) * 1380
	var werr error
	res := measure(n, func() {
		werr = c.Write(int(total))
		for i := 0; i < 1<<20 && r.rcvd < total; i++ {
			r.s.RunFor(10 * time.Millisecond)
		}
	})
	if werr == nil && r.rcvd != total {
		werr = fmt.Errorf("received %d of %d bytes", r.rcvd, total)
	}
	return res, werr
}

// mptcpConnOpen prices a connection's life without data: Connect, the
// MP_CAPABLE handshake, and a graceful close from both sides.
func mptcpConnOpen(n int) (cost, error) {
	r := newMPRig(fat(time.Millisecond), fat(time.Millisecond), mptcp.Config{}, nil)
	var err error
	res := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var c *mptcp.Connection
			if c, err = r.connect(); err == nil {
				c.Close()
				r.s.RunFor(10 * time.Millisecond)
			}
		}
	})
	return res, err
}

// mptcpJoin prices one additional subflow on an established connection:
// OpenSubflow, the MP_JOIN handshake, and its removal.
func mptcpJoin(n int) (cost, error) {
	r := newMPRig(fat(time.Millisecond), fat(time.Millisecond), mptcp.Config{}, nil)
	c, err := r.connect()
	if err != nil {
		return cost{}, err
	}
	second := r.net.Clients[0].Addrs[1]
	res := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var sf *tcp.Subflow
			if sf, err = c.OpenSubflow(second, 0, r.net.ServerAddr, 80, false); err != nil {
				break
			}
			r.s.RunFor(5 * time.Millisecond)
			if !sf.Established() {
				err = fmt.Errorf("join %d did not establish", i)
			}
			c.CloseSubflow(sf, true)
			r.s.RunFor(5 * time.Millisecond)
		}
	})
	return res, err
}

// --- core: the Netlink path between kernel PM and library ---

// coreRig is an established connection whose client endpoint runs the
// Netlink path manager over the simulated transport, with a Library on
// the other end.
type coreRig struct {
	*mpRig
	pm   *core.NetlinkPM
	lib  *core.Library
	conn *mptcp.Connection
	sf   *tcp.Subflow
}

func newCoreRig(cbs core.Callbacks) (*coreRig, error) {
	r := &coreRig{}
	s := sim.New(1)
	tr := core.NewSimTransport(s)
	r.pm = core.NewNetlinkPM(s, tr)
	r.lib = core.NewLibrary(tr, core.SimClock{S: s}, 1)
	r.mpRig = &mpRig{s: s}
	r.net = scenario.TwoPath{P0: fat(time.Millisecond), P1: fat(time.Millisecond)}.Build(s, 1)
	r.cep = mptcp.NewEndpoint(r.net.Clients[0].Host, mptcp.Config{}, r.pm)
	r.sep = mptcp.NewEndpoint(r.net.Server, mptcp.Config{}, nil)
	r.sep.Listen(80, func(*mptcp.Connection) {})
	r.lib.Register(cbs, nil)
	s.RunFor(time.Millisecond) // the subscription crosses the transport
	var err error
	if r.conn, err = r.connect(); err != nil {
		return nil, err
	}
	r.sf = r.conn.Subflows()[0]
	return r, nil
}

// coreEvents prices one kernel event reaching its library callback:
// NetlinkPM marshals it, the SimPipe carries it, the Library parses and
// dispatches it. With a coalescing window the events of a burst share one
// frame (and superseded ones merge), so fewer callbacks fire than events
// were emitted; the cost is per emitted event either way.
func coreEvents(n int, window time.Duration) (cost, error) {
	got := 0
	r, err := newCoreRig(core.Callbacks{Timeout: func(*nlmsg.Event) { got++ }})
	if err != nil {
		return cost{}, err
	}
	if window > 0 {
		r.pm.SetCoalescing(window, 0)
	}
	const burst = 16
	res := measure(n, func() {
		for i := 0; i < n; i++ {
			r.pm.Timeout(r.conn, r.sf, 400*time.Millisecond, 1+i%burst)
			if i%burst == burst-1 {
				r.s.RunFor(time.Millisecond)
			}
		}
		r.s.RunFor(time.Millisecond)
	})
	if window == 0 && got != n {
		return res, fmt.Errorf("%d of %d events delivered", got, n)
	}
	if got == 0 {
		return res, fmt.Errorf("no event delivered")
	}
	return res, nil
}

// coreCmdApply prices one controller command: the Library marshals it,
// the pipe carries it, NetlinkPM applies it (SetBackup, which emits an
// MP_PRIO on the subflow) and acknowledges, and the done callback runs.
func coreCmdApply(n int) (cost, error) {
	r, err := newCoreRig(core.Callbacks{})
	if err != nil {
		return cost{}, err
	}
	acked, failed := 0, 0
	done := func(errno uint32) {
		acked++
		if errno != 0 {
			failed++
		}
	}
	const burst = 16
	token, tuple := r.conn.Token(), r.sf.Tuple()
	res := measure(n, func() {
		for i := 0; i < n; i++ {
			r.lib.SetBackup(token, tuple, i%2 == 0, done)
			if i%burst == burst-1 {
				r.s.RunFor(time.Millisecond)
			}
		}
		r.s.RunFor(time.Millisecond)
	})
	if acked != n || failed > 0 {
		return res, fmt.Errorf("%d of %d commands acknowledged, %d with an error", acked, n, failed)
	}
	return res, nil
}

// --- controller: a canned event sequence against a stub core.Lib ---

// stubLib implements core.Lib without a kernel: commands succeed at once,
// GetInfo answers from a canned snapshot, timers queue until the driver
// fires them.
type stubLib struct {
	cbs      core.Callbacks
	now      time.Duration
	timers   []func()
	commands int
	info     nlmsg.ConnInfo
}

func (l *stubLib) Register(cbs core.Callbacks, done func(uint32)) {
	l.cbs = cbs
	l.ack(done)
}
func (l *stubLib) ack(done func(uint32)) {
	l.commands++
	if done != nil {
		done(0)
	}
}
func (l *stubLib) CreateSubflow(_ uint32, _ seg.FourTuple, _ bool, done func(uint32)) { l.ack(done) }
func (l *stubLib) RemoveSubflow(_ uint32, _ seg.FourTuple, done func(uint32))         { l.ack(done) }
func (l *stubLib) SetBackup(_ uint32, _ seg.FourTuple, _ bool, done func(uint32))     { l.ack(done) }
func (l *stubLib) AnnounceAddr(_ uint32, _ netip.Addr, _ uint16, done func(uint32))   { l.ack(done) }
func (l *stubLib) GetInfo(_ uint32, done func(*nlmsg.ConnInfo)) {
	l.commands++
	done(&l.info)
}
func (l *stubLib) After(_ time.Duration, fn func()) func() {
	i := len(l.timers)
	l.timers = append(l.timers, fn)
	return func() {
		if i < len(l.timers) {
			l.timers[i] = nil
		}
	}
}
func (l *stubLib) Clock() core.Clock  { return l }
func (l *stubLib) Now() time.Duration { return l.now }

// fire runs the timers pending right now, once; timers they re-arm wait
// for the next call.
func (l *stubLib) fire() {
	due := l.timers
	l.timers = nil
	for _, fn := range due {
		if fn != nil {
			fn()
		}
	}
}

// controllerEvents prices one event through a controller's callbacks:
// per connection the sequence created, established, sub-established,
// (timers fire), timeout, sub-closed, local address down and up, closed.
func controllerEvents(n int, name string) (cost, error) {
	first, second := netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.2.0.1")
	remote := netip.MustParseAddr("10.99.0.1")
	factory, err := smapp.LookupController(name)
	if err != nil {
		return cost{}, err
	}
	ctl, err := factory(smapp.ControllerConfig{
		Addrs: []netip.Addr{first, second}, Subflows: 5,
		Period: time.Second, BlockSize: 64 << 10,
	})
	if err != nil {
		return cost{}, err
	}
	initial := seg.FourTuple{SrcIP: first, DstIP: remote, SrcPort: 40000, DstPort: 80}
	joined := seg.FourTuple{SrcIP: second, DstIP: remote, SrcPort: 40001, DstPort: 80}
	lib := &stubLib{info: nlmsg.ConnInfo{Subflows: []nlmsg.SubflowInfo{
		{Tuple: initial, State: uint32(tcp.StateEstablished), Cwnd: 10, SRTT: 10 * time.Millisecond, RTO: 200 * time.Millisecond},
		{Tuple: joined, State: uint32(tcp.StateEstablished), Cwnd: 10, SRTT: 40 * time.Millisecond, RTO: 400 * time.Millisecond},
	}}}
	ctl.Attach(lib)
	seq := []nlmsg.Event{
		{Kind: nlmsg.EvCreated, Tuple: initial, HasTuple: true},
		{Kind: nlmsg.EvEstablished, Tuple: initial, HasTuple: true},
		{Kind: nlmsg.EvSubEstablished, Tuple: joined, HasTuple: true},
		{Kind: nlmsg.EvTimeout, Tuple: initial, HasTuple: true, RTO: 1600 * time.Millisecond, Backoffs: 3},
		{Kind: nlmsg.EvSubClosed, Tuple: joined, HasTuple: true, Errno: 110},
		{Kind: nlmsg.EvLocalAddrDown, Addr: second},
		{Kind: nlmsg.EvLocalAddrUp, Addr: second},
		{Kind: nlmsg.EvClosed},
	}
	conns := (n + len(seq) - 1) / len(seq)
	res := measure(conns*len(seq), func() {
		for c := 0; c < conns; c++ {
			lib.info.Token = uint32(c + 1)
			for i := range seq {
				ev := seq[i]
				ev.Token = lib.info.Token
				ev.At = lib.now
				lib.cbs.Dispatch(&ev)
				if ev.Kind == nlmsg.EvSubEstablished {
					lib.now += 3 * time.Second
					lib.fire()
				}
			}
			lib.timers = lib.timers[:0]
		}
	})
	ctl.Detach()
	if lib.commands < 2 {
		return res, fmt.Errorf("controller %s issued no command", name)
	}
	return res, nil
}

// --- smapp ---

// smappStackNew prices the facade's per-host construction: endpoint,
// Netlink PM, transport, library and controller mux on a bare host.
func smappStackNew(n int) (cost, error) {
	s := sim.New(1)
	hosts := make([]*netem.Host, n)
	for i := range hosts {
		hosts[i] = netem.NewHost(s, "h")
	}
	stacks := make([]*smapp.Stack, n)
	res := measure(n, func() {
		for i, h := range hosts {
			stacks[i] = smapp.New(h, smapp.Config{})
		}
	})
	return res, nil
}

// smappDial prices a policy-bound connection through the facade: Dial with
// the fullmesh controller, the handshake, the controller's join over the
// Netlink path, and the abort that tears it all down.
func smappDial(n int) (cost, error) {
	r := newServerRig(fat(time.Millisecond), fat(time.Millisecond), mptcp.Config{})
	cl := r.net.Clients[0]
	st := smapp.New(cl.Host, smapp.Config{})
	r.s.RunFor(time.Millisecond)
	var err error
	short := 0
	res := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var c *mptcp.Connection
			c, err = st.Dial(cl.Addrs[0], r.net.ServerAddr, 80, "fullmesh", smapp.ControllerConfig{}, mptcp.ConnCallbacks{})
			if err != nil {
				break
			}
			r.s.RunFor(20 * time.Millisecond)
			if len(c.Subflows()) != 2 {
				short++
			}
			c.Abort()
			r.s.RunFor(5 * time.Millisecond)
		}
	})
	if err == nil && short > 0 {
		err = fmt.Errorf("%d of %d connections never got their second subflow", short, n)
	}
	return res, err
}
