package smapp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/testutil"
	"repro/internal/topo"
)

// rig is a two-path world with a smapp stack on the client and a plain
// endpoint on the server.
type rig struct {
	net *topo.TwoPath
	st  *Stack
	sep *mptcp.Endpoint
}

func newRig(seed int64, link netem.LinkConfig, cfg Config) *rig {
	r := &rig{net: topo.NewTwoPath(sim.New(seed), link, link)}
	r.st = New(r.net.Client, cfg)
	r.sep = mptcp.NewEndpoint(r.net.Server, mptcp.Config{}, nil)
	r.net.Sim.RunFor(time.Millisecond)
	return r
}

func TestDialBindsPolicyPerConnection(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(1, p, Config{})
	r.sep.Listen(80, nil)
	conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"fullmesh", ControllerConfig{}, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	r.net.Sim.Run()
	if got := len(conn.Subflows()); got != 2 {
		t.Fatalf("fullmesh policy built %d subflows, want 2", got)
	}
	if r.st.PolicyName(conn) != "fullmesh" {
		t.Fatalf("policy = %q", r.st.PolicyName(conn))
	}
	if _, ok := r.st.Controller(conn).(*controller.FullMesh); !ok {
		t.Fatalf("controller = %T", r.st.Controller(conn))
	}
	if r.st.Stats.PoliciesAttached != 1 {
		t.Fatalf("attached = %d", r.st.Stats.PoliciesAttached)
	}
}

func TestDialDefaultsAddrsFromHost(t *testing.T) {
	// No Addrs in the config: the stack must fill in the host's
	// interfaces, so "fullmesh" still meshes both paths.
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(2, p, Config{})
	r.sep.Listen(80, nil)
	conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"fullmesh", ControllerConfig{}, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	r.net.Sim.Run()
	addrs := map[string]bool{}
	for _, sf := range conn.Subflows() {
		addrs[sf.Tuple().SrcIP.String()] = true
	}
	if len(addrs) != 2 {
		t.Fatalf("mesh covers %d local addresses, want 2", len(addrs))
	}
}

func TestDialErrors(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(3, p, Config{})
	if _, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"no-such", ControllerConfig{}, mptcp.ConnCallbacks{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	// A bad config must fail the Dial, before any connection exists.
	if _, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"refresh", ControllerConfig{Subflows: 1}, mptcp.ConnCallbacks{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if got := len(r.st.Endpoint.Conns()); got != 0 {
		t.Fatalf("failed dials leaked %d connections", got)
	}
}

// TestNilPolicyDialSkipsListenPorts: a dialled connection never draws a
// port a Listen holds, so the mux cannot claim it for the listener's
// policy. With every ephemeral port but one listened on, the nil-policy
// Dial gets that one and stays unmanaged.
func TestNilPolicyDialSkipsListenPorts(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(11, p, Config{})
	const free = 45000
	for port := 32768; port < 32768+28232; port++ {
		if port == free {
			continue
		}
		if err := r.st.Listen(uint16(port), "fullmesh", ControllerConfig{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.sep.Listen(80, nil)
	conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"", ControllerConfig{}, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	r.net.Sim.RunFor(time.Second)
	if got := conn.InitialTuple().SrcPort; got != free {
		t.Fatalf("dial drew port %d, want the one free port %d", got, free)
	}
	if got := r.st.PolicyName(conn); got != "" {
		t.Fatalf("nil-policy dial claimed by the %q listener", got)
	}
}

func TestKernelPMStackRejectsPolicies(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(4, p, Config{KernelPM: mptcp.NopPM{}})
	if _, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"fullmesh", ControllerConfig{}, mptcp.ConnCallbacks{}); err == nil {
		t.Fatal("policy accepted on a stack with no userspace control plane")
	}
	r.sep.Listen(80, nil)
	if _, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"", ControllerConfig{}, mptcp.ConnCallbacks{}); err != nil {
		t.Fatalf("nil policy must work: %v", err)
	}
}

func TestListenBindsPolicyPerAcceptedConnection(t *testing.T) {
	// The policy runs on the SERVER side here: ndiffports opens extra
	// subflows back to the client. Listen claims the port, so the policy
	// attaches when the created event arrives — at SYN time: attach now
	// precedes accept, and nothing is buffered for it.
	p := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	net := topo.NewTwoPath(sim.New(5), p, p)
	sst := New(net.Server, Config{})
	cep := mptcp.NewEndpoint(net.Client, mptcp.Config{}, nil)
	var server *mptcp.Connection
	var policyAtAccept string
	if err := sst.Listen(80, "ndiffports", ControllerConfig{Subflows: 3},
		func(c *mptcp.Connection) { server, policyAtAccept = c, sst.PolicyName(c) }); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunFor(time.Millisecond)
	if _, err := cep.Connect(net.ClientAddrs[0], net.ServerAddr, 80, mptcp.ConnCallbacks{}); err != nil {
		t.Fatal(err)
	}
	net.Sim.Run()
	if server == nil {
		t.Fatal("no connection accepted")
	}
	if got := len(server.Subflows()); got != 3 {
		t.Fatalf("server-side ndiffports built %d subflows, want 3", got)
	}
	if sst.PolicyName(server) != "ndiffports" {
		t.Fatalf("policy = %q", sst.PolicyName(server))
	}
	if policyAtAccept != "ndiffports" {
		t.Fatalf("policy at accept = %q: the created event should have bound it already", policyAtAccept)
	}
	if sst.Stats.PoliciesAttached != 1 || sst.Stats.EventsUnclaimed != 0 {
		t.Fatalf("stats %+v, want one attach and no unclaimed event", sst.Stats)
	}
}

func TestListenRejectsBadConfigUpFront(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	r := newRig(6, p, Config{})
	if err := r.st.Listen(80, "backup", ControllerConfig{Addrs: r.net.ClientAddrs[:1]}, nil); err == nil {
		t.Fatal("invalid config accepted by Listen")
	}
}

// TestSwitchPolicyMidTransfer is the facade's headline capability: a bulk
// transfer starts under fullmesh (both interfaces hot), switches to the
// break-before-make backup policy mid-flight, and must end with the
// transfer complete over the backup interface, the byte accounting
// consistent, and the detached fullmesh provably inert.
func TestSwitchPolicyMidTransfer(t *testing.T) {
	const total = 10 << 20
	p := netem.LinkConfig{RateBps: 8e6, Delay: 15 * time.Millisecond}
	r := newRig(7, p, Config{})
	sink := app.NewSink(r.net.Sim, total, nil)
	r.sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
	src := app.NewSource(r.net.Sim, total, false)
	conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"fullmesh", ControllerConfig{}, src.Callbacks())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: fullmesh builds the two-subflow mesh.
	r.net.Sim.RunUntil(sim.Second)
	if got := len(conn.Subflows()); got != 2 {
		t.Fatalf("mesh = %d subflows before the switch, want 2", got)
	}
	oldCtl := r.st.Controller(conn).(*controller.FullMesh)

	// Phase 2: switch to backup at t=1s and cool the second radio down.
	if err := r.st.SwitchPolicy(conn, "backup", ControllerConfig{Threshold: time.Second}); err != nil {
		t.Fatal(err)
	}
	if r.st.PolicyName(conn) != "backup" {
		t.Fatalf("policy = %q after switch", r.st.PolicyName(conn))
	}
	if r.st.Stats.PoliciesSwitched != 1 {
		t.Fatalf("switched = %d", r.st.Stats.PoliciesSwitched)
	}
	for _, sf := range conn.Subflows() {
		if sf.Tuple().SrcIP == r.net.ClientAddrs[1] {
			conn.CloseSubflow(sf, true)
		}
	}
	// The detached fullmesh must NOT re-establish the killed subflow
	// (its retry timer was 1 s; give it 3).
	r.net.Sim.RunUntil(4 * sim.Second)
	if got := len(conn.Subflows()); got != 1 {
		t.Fatalf("detached fullmesh still acting: %d subflows", got)
	}
	if oldCtl.Stats.Reestablishments != 0 {
		t.Fatalf("detached fullmesh re-established %d subflows", oldCtl.Stats.Reestablishments)
	}

	// Phase 3: the primary degrades; the NEW policy must do the
	// break-before-make switch within seconds.
	r.net.Path[0].SetLoss(0.9)
	r.net.Sim.RunUntil(60 * sim.Second)

	bctl := r.st.Controller(conn).(*controller.Backup)
	if bctl.Stats.Switches != 1 {
		t.Fatalf("backup switches = %d, want 1", bctl.Stats.Switches)
	}
	if !sink.Done {
		t.Fatalf("transfer incomplete: %d / %d bytes", sink.Received, uint64(total))
	}
	for _, sf := range conn.Subflows() {
		if sf.Tuple().SrcIP != r.net.ClientAddrs[1] {
			t.Fatalf("surviving subflow on %v, want the backup interface", sf.Tuple().SrcIP)
		}
	}
	// Byte accounting stayed consistent across the policy swap: all
	// written bytes were delivered and acknowledged, and nothing was
	// double-counted as fresh data.
	info := r.st.Info(conn)
	if info.Stats.BytesWritten != total || sink.Received != total {
		t.Fatalf("accounting: written=%d received=%d want %d",
			info.Stats.BytesWritten, sink.Received, uint64(total))
	}
	if info.SndUna != total {
		t.Fatalf("snd_una=%d after completion, want %d", info.SndUna, uint64(total))
	}
	if info.Stats.BytesScheduled != total {
		t.Fatalf("scheduled=%d bytes as fresh data, want exactly %d", info.Stats.BytesScheduled, uint64(total))
	}
}

// TestSwitchPolicyFromNilPolicy: a connection nobody claimed costs the mux
// a counter and nothing else, on the dialling side and behind a nil-policy
// Listen (the examples/quickstart server) alike, and a policy switched in
// later is told the connection's state exactly once. (The per-token buffer
// this replaces delivered created/established twice — replayed on bind,
// then synthesised — and ndiffports opened 4 extra subflows instead of 2.)
func TestSwitchPolicyFromNilPolicy(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	net := topo.NewTwoPath(sim.New(10), p, p)
	cst, sst := New(net.Client, Config{}), New(net.Server, Config{})
	if err := sst.Listen(80, "", ControllerConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunFor(time.Millisecond)
	conn, err := cst.Dial(net.ClientAddrs[0], net.ServerAddr, 80, "", ControllerConfig{}, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	net.Sim.RunFor(time.Second)
	for name, st := range map[string]*Stack{"client": cst, "server": sst} {
		if len(st.bindings)+len(st.order)+len(st.ports) != 0 || st.fallback != nil {
			t.Fatalf("%s: nil policy left state behind: %d bindings, %d ordered, %d ports",
				name, len(st.bindings), len(st.order), len(st.ports))
		}
		if st.Stats.EventsUnclaimed < 2 || st.Stats.EventsDispatched != 0 {
			t.Fatalf("%s: stats %+v, want created and established counted as unclaimed", name, st.Stats)
		}
	}

	if err := cst.SwitchPolicy(conn, "ndiffports", ControllerConfig{Subflows: 3}); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunFor(time.Second)
	if got := len(conn.Subflows()); got != 3 {
		t.Fatalf("ndiffports(3) switched in from the nil policy built %d subflows, want 3", got)
	}
	if got := cst.Controller(conn).(*controller.NDiffPorts).Stats.SubflowsRequested; got != 2 {
		t.Fatalf("ndiffports requested %d subflows, want 2", got)
	}
	if cst.Stats.PoliciesSwitched != 0 || cst.Stats.PoliciesAttached != 1 {
		t.Fatalf("stats %+v, want one attach and no switch (nothing was bound before)", cst.Stats)
	}
}

func TestSwitchPolicyToNilDetaches(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(8, p, Config{})
	r.sep.Listen(80, nil)
	conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"fullmesh", ControllerConfig{}, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	r.net.Sim.Run()
	if err := r.st.SwitchPolicy(conn, "", ControllerConfig{}); err != nil {
		t.Fatal(err)
	}
	if r.st.PolicyName(conn) != "" || r.st.Controller(conn) != nil {
		t.Fatal("nil-policy switch left a binding behind")
	}
	// Kill a subflow: with no policy bound, nobody rebuilds it.
	conn.CloseSubflow(conn.Subflows()[1], true)
	r.net.Sim.RunFor(5 * time.Second)
	if got := len(conn.Subflows()); got != 1 {
		t.Fatalf("subflows = %d after nil-policy switch, want 1", got)
	}
}

// TestInfoAgreesWithGetInfo: the facade's snapshot and the get-info reply
// a controller receives over Netlink describe the same subflows, index by
// index, once the transfer is done and nothing moves.
func TestInfoAgreesWithGetInfo(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	r := newRig(9, p, Config{})
	sink := app.NewSink(r.net.Sim, 1<<20, nil)
	r.sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
	src := app.NewSource(r.net.Sim, 1<<20, false)
	conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
		"fullmesh", ControllerConfig{}, src.Callbacks())
	if err != nil {
		t.Fatal(err)
	}
	r.net.Sim.RunUntil(5 * sim.Second)

	var wire []nlmsg.SubflowInfo
	r.st.Lib.GetInfo(conn.Token(), func(ci *nlmsg.ConnInfo) { wire = slices.Clone(ci.Subflows) })
	r.net.Sim.RunFor(10 * time.Millisecond)
	info := r.st.Info(conn)
	if info.Policy != "fullmesh" {
		t.Fatalf("policy = %q", info.Policy)
	}
	if len(wire) != len(info.Subflows) || len(wire) < 2 {
		t.Fatalf("get-info has %d subflows, Info %d; want the full mesh's two", len(wire), len(info.Subflows))
	}
	for i, sf := range info.Subflows {
		w := wire[i]
		if w.Tuple != sf.Tuple || w.State != uint32(sf.State) || w.Cwnd != uint32(sf.Cwnd) || w.SRTT != sf.SRTT {
			t.Fatalf("subflow %d: get-info %+v, Info %+v", i, w, sf)
		}
		if sf.State == tcp.StateEstablished && w.SRTT <= 0 {
			t.Fatalf("subflow %d: SRTT not populated", i)
		}
	}
	if info.SndUna != info.Stats.BytesWritten || info.SndUna != 1<<20 {
		t.Fatalf("app-side counters inconsistent: snd_una=%d written=%d", info.SndUna, info.Stats.BytesWritten)
	}
}

// TestDeterministicAcrossRuns guards the facade's event fan-out: two
// identically seeded runs must behave bit-identically even with policies
// bound on several connections (map-ordered dispatch would diverge).
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		p := netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond}
		r := newRig(42, p, Config{})
		sink := app.NewSink(r.net.Sim, 4<<20, nil)
		r.sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
		var conns []*mptcp.Connection
		for i := 0; i < 3; i++ {
			src := app.NewSource(r.net.Sim, 1<<20, false)
			c, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
				"fullmesh", ControllerConfig{}, src.Callbacks())
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, c)
		}
		// An interface flap fans local-addr events out to every binding.
		r.net.Sim.Schedule(sim.Second, "flap", func() {
			r.net.Client.SetIfaceUp(r.net.ClientAddrs[1], false)
		})
		r.net.Sim.Schedule(2*sim.Second, "unflap", func() {
			r.net.Client.SetIfaceUp(r.net.ClientAddrs[1], true)
		})
		r.net.Sim.RunUntil(20 * sim.Second)
		var pushed uint64
		for _, c := range conns {
			pushed += c.Stats().ChunksPushed
		}
		return pushed, r.st.Stats.EventsDispatched
	}
	p1, e1 := run()
	p2, e2 := run()
	if p1 != p2 || e1 != e2 {
		t.Fatalf("identical seeds diverged: pushed %d/%d, events %d/%d", p1, p2, e1, e2)
	}
}

// TestFlapCycleAllocBudget pins what one interface outage costs a
// 2-interface stack end to end — address-down event, FullMesh dismissing
// the lost subflow, address-up event, the create command, its ack, the
// re-join — through the real NetlinkPM → SimPipe → Library → FullMesh
// path, with immediate and with coalesced event delivery. The cycle creates
// two subflows, the client's and the server's end of the re-join. The
// client's reuses the subflow its connection lost in the previous cycle
// (mptcp.Connection's spares), so only the server's passive end is a new
// object; nothing else is allocated per event, command, ack or flush: the
// constant on top is 0. (The server's old end never dies — it stays
// half-open, DESIGN.md "Known model gaps" — so it has nothing to reuse.
// AllocsPerRun reports whole objects per run, so the one thing that still
// grows, amortised — that server's subflow list and tuple table double now
// and then — stays under the count.)
func TestFlapCycleAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	for _, flush := range []time.Duration{0, 200 * time.Microsecond} {
		p := netem.LinkConfig{RateBps: 50e6, Delay: 2 * time.Millisecond}
		r := newRig(21, p, Config{CtlFlush: flush})
		r.sep.Listen(80, nil)
		conn, err := r.st.Dial(r.net.ClientAddrs[0], r.net.ServerAddr, 80,
			"fullmesh", ControllerConfig{}, mptcp.ConnCallbacks{})
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			r.net.Client.SetIfaceUp(r.net.ClientAddrs[1], false)
			r.net.Sim.RunFor(20 * time.Millisecond)
			r.net.Client.SetIfaceUp(r.net.ClientAddrs[1], true)
			r.net.Sim.RunFor(30 * time.Millisecond)
		}
		r.net.Sim.RunFor(50 * time.Millisecond)
		cycle() // warm the pools and the command/ack queues
		opened := conn.Stats().SubflowsOpened
		const cycles = 200
		avg := testing.AllocsPerRun(cycles, cycle)
		if got := conn.Stats().SubflowsOpened - opened; got != cycles+1 || len(conn.Subflows()) != 2 {
			t.Fatalf("flush %v: %d re-joins in %d cycles, %d subflows live", flush, got, cycles+1, len(conn.Subflows()))
		}
		if avg != 1 {
			t.Fatalf("flush %v: a flap cycle allocates %.0f objects, want 1: the server's end of the re-join (the client's reuses the subflow it lost)", flush, avg)
		}
	}
}

// fanCtl is a controller that logs the address events it gets and, on its
// first one, closes the connections named in closes — as a controller whose
// connection ends inside the handler would, over a transport that delivers
// the closed event at once — and binds a new one per token in binds.
type fanCtl struct {
	st            *Stack
	token         uint32
	closes, binds []uint32
	log           *[]uint32
}

func (c *fanCtl) Detach() {}
func (c *fanCtl) Attach(lib core.Lib) {
	lib.Register(core.Callbacks{LocalAddrDown: func(*nlmsg.Event) {
		*c.log = append(*c.log, c.token)
		for _, t := range c.closes {
			c.st.route(&nlmsg.Event{Kind: nlmsg.EvClosed, Token: t})
		}
		for _, t := range c.binds {
			c.st.bind(t, "fan", &fanCtl{st: c.st, token: t, log: c.log})
		}
		c.closes, c.binds = nil, nil
	}}, nil)
}

// TestRouteUnbindDuringFanOut unbinds connections from inside a fan-out —
// the walker's own, earlier ones, later ones, all of them. The walk copies
// nothing, and must still deliver to exactly the bindings the copying loop
// it replaced did, in its order: no binding skipped because the list slid
// under the cursor, none visited twice, a closed one not at all, one bound
// during the walk from the next event on.
func TestRouteUnbindDuringFanOut(t *testing.T) {
	// The loop route used to run, kept here as the referee.
	copying := func(st *Stack, ev *nlmsg.Event) {
		for _, token := range append([]uint32(nil), st.order...) {
			if b := st.bindings[token]; b != nil {
				b.cbs.Dispatch(ev)
			}
		}
	}
	p := netem.LinkConfig{RateBps: 50e6, Delay: time.Millisecond}
	for _, tc := range []struct {
		closer uint32
		closes []uint32
		binds  []uint32
		want   []uint32 // first event's deliveries, then the second's
	}{
		{3, []uint32{3}, nil, []uint32{1, 2, 3, 4, 5, 1, 2, 4, 5}},
		{3, []uint32{1}, nil, []uint32{1, 2, 3, 4, 5, 2, 3, 4, 5}},
		{3, []uint32{5}, nil, []uint32{1, 2, 3, 4, 1, 2, 3, 4}},
		{3, []uint32{4, 1}, nil, []uint32{1, 2, 3, 5, 2, 3, 5}},
		{2, []uint32{2, 3}, nil, []uint32{1, 2, 4, 5, 1, 4, 5}},
		{5, []uint32{5, 4}, nil, []uint32{1, 2, 3, 4, 5, 1, 2, 3}},
		{1, []uint32{1, 2, 3, 4, 5}, nil, []uint32{1}},
		{2, nil, []uint32{6}, []uint32{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6}},
		{4, []uint32{4, 2}, []uint32{6, 7}, []uint32{1, 2, 3, 4, 5, 1, 3, 5, 6, 7}},
	} {
		var logs [2][]uint32
		for side, fanOut := range []func(*Stack, *nlmsg.Event){(*Stack).route, copying} {
			st := newRig(31, p, Config{}).st
			for token := uint32(1); token <= 5; token++ {
				ctl := &fanCtl{st: st, token: token, log: &logs[side]}
				if token == tc.closer {
					ctl.closes, ctl.binds = tc.closes, tc.binds
				}
				st.bind(token, "fan", ctl)
			}
			ev := &nlmsg.Event{Kind: nlmsg.EvLocalAddrDown}
			fanOut(st, ev)
			fanOut(st, ev)
			if st.fanPos != 0 || st.fanEnd != 0 {
				t.Fatalf("%d closes %v: cursor left at %d/%d after the walk", tc.closer, tc.closes, st.fanPos, st.fanEnd)
			}
		}
		if !slices.Equal(logs[0], tc.want) || !slices.Equal(logs[1], tc.want) {
			t.Fatalf("%d closes %v: route delivered to %v, the copying loop to %v, want %v",
				tc.closer, tc.closes, logs[0], logs[1], tc.want)
		}
	}
}
