package core

import (
	"bytes"
	"io"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
)

// world wires a two-path topology where the CLIENT runs the Netlink PM,
// with a library attached over a simulated transport.
type world struct {
	net    *topo.TwoPath
	tr     *Transport
	pm     *NetlinkPM
	lib    *Library
	cep    *mptcp.Endpoint
	sep    *mptcp.Endpoint
	client *mptcp.Connection
	server *mptcp.Connection
	rcv    uint64
	events []*nlmsg.Event
}

func newWorld(t *testing.T, seed int64, cbs Callbacks) *world {
	t.Helper()
	w := &world{}
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	w.net = topo.NewTwoPath(sim.New(seed), cfg, cfg)
	w.tr = NewSimTransport(w.net.Sim)
	w.pm = NewNetlinkPM(w.net.Sim, w.tr)
	w.lib = NewLibrary(w.tr, SimClock{w.net.Sim}, 1)
	w.lib.Register(cbs, nil)
	w.cep = mptcp.NewEndpoint(w.net.Client, mptcp.Config{}, w.pm)
	w.sep = mptcp.NewEndpoint(w.net.Server, mptcp.Config{}, nil)
	w.sep.Listen(80, func(c *mptcp.Connection) { w.server = c })
	return w
}

func (w *world) connect(t *testing.T) {
	t.Helper()
	var err error
	w.client, err = w.cep.Connect(w.net.ClientAddrs[0], w.net.ServerAddr, 80,
		mptcp.ConnCallbacks{OnData: func(_ *mptcp.Connection, n uint64) { w.rcv = n }})
	if err != nil {
		t.Fatal(err)
	}
}

// record returns callbacks appending every event to w.events. The library
// hands out its reused decode scratch, so retained events must be copied.
func (w *world) record() Callbacks {
	rec := func(ev *nlmsg.Event) { c := *ev; w.events = append(w.events, &c) }
	return Callbacks{
		Created: rec, Established: rec, Closed: rec,
		SubEstablished: rec, SubClosed: rec,
		AddAddr: rec, RemAddr: rec, Timeout: rec,
		LocalAddrUp: rec, LocalAddrDown: rec,
	}
}

func (w *world) kinds() []nlmsg.Cmd {
	var out []nlmsg.Cmd
	for _, e := range w.events {
		out = append(out, e.Kind)
	}
	return out
}

func TestEventFlow(t *testing.T) {
	w := &world{}
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	w.net = topo.NewTwoPath(sim.New(1), cfg, cfg)
	w.tr = NewSimTransport(w.net.Sim)
	w.pm = NewNetlinkPM(w.net.Sim, w.tr)
	w.lib = NewLibrary(w.tr, SimClock{w.net.Sim}, 1)
	w.lib.Register(w.record(), nil)
	w.cep = mptcp.NewEndpoint(w.net.Client, mptcp.Config{}, w.pm)
	w.sep = mptcp.NewEndpoint(w.net.Server, mptcp.Config{}, nil)
	w.sep.Listen(80, func(c *mptcp.Connection) { w.server = c })
	w.net.Sim.RunFor(time.Millisecond) // let the subscription land
	w.connect(t)
	w.net.Sim.Run()

	kinds := w.kinds()
	want := []nlmsg.Cmd{nlmsg.EvCreated, nlmsg.EvEstablished, nlmsg.EvSubEstablished}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	ev := w.events[0]
	if ev.Token != w.client.Token() || !ev.HasTuple {
		t.Fatalf("created event = %+v", ev)
	}
	// The event timestamp is kernel-side; delivery adds transport latency.
	if ev.At == 0 {
		t.Fatal("event missing timestamp")
	}
}

func TestSubscriptionMaskFilters(t *testing.T) {
	// Subscribe only to timeout events: creation events must be masked.
	w := newWorld(t, 2, Callbacks{Timeout: func(*nlmsg.Event) {}})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	if w.pm.EventsSent != 0 {
		t.Fatalf("kernel sent %d events despite mask", w.pm.EventsSent)
	}
	if w.pm.EventsMasked == 0 {
		t.Fatal("no events were masked")
	}
}

func TestCreateSubflowCommand(t *testing.T) {
	w := newWorld(t, 3, Callbacks{})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	var errno uint32 = 999
	ft := seg.FourTuple{SrcIP: w.net.ClientAddrs[1], DstIP: w.net.ServerAddr, SrcPort: 0, DstPort: 80}
	w.lib.CreateSubflow(w.client.Token(), ft, false, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != 0 {
		t.Fatalf("create errno = %d", errno)
	}
	if len(w.client.Subflows()) != 2 {
		t.Fatalf("subflows = %d", len(w.client.Subflows()))
	}
	// Unknown token → ENOENT.
	w.lib.CreateSubflow(0xdead, ft, false, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != errnoNOENT {
		t.Fatalf("bogus-token errno = %d, want ENOENT", errno)
	}
	// Down interface → ENETUNREACH (101).
	w.net.Client.SetIfaceUp(w.net.ClientAddrs[1], false)
	ft2 := ft
	ft2.SrcPort = 0
	w.lib.CreateSubflow(w.client.Token(), ft2, false, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != 101 {
		t.Fatalf("down-iface errno = %d, want 101", errno)
	}
}

func TestRemoveSubflowCommand(t *testing.T) {
	var closed []*nlmsg.Event
	w := newWorld(t, 4, Callbacks{SubClosed: func(e *nlmsg.Event) { c := *e; closed = append(closed, &c) }})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	ft := w.client.Subflows()[0].Tuple()
	var errno uint32 = 999
	w.lib.RemoveSubflow(w.client.Token(), ft, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != 0 {
		t.Fatalf("remove errno = %d", errno)
	}
	if len(w.client.Subflows()) != 0 {
		t.Fatal("subflow survived removal")
	}
	if len(closed) != 1 || closed[0].Errno != 103 { // ECONNABORTED
		t.Fatalf("sub_closed events = %+v", closed)
	}
	// Removing it again → ENOENT.
	w.lib.RemoveSubflow(w.client.Token(), ft, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != errnoNOENT {
		t.Fatalf("double-remove errno = %d", errno)
	}
}

func TestGetInfoCommand(t *testing.T) {
	w := newWorld(t, 5, Callbacks{})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	w.client.Write(100_000)
	w.net.Sim.Run()
	// The library lends its decode scratch, so a kept reply is copied,
	// its Subflows too.
	var info *nlmsg.ConnInfo
	keep := func(i *nlmsg.ConnInfo) {
		info = nil
		if i != nil {
			c := *i
			c.Subflows = slices.Clone(i.Subflows)
			info = &c
		}
	}
	w.lib.GetInfo(w.client.Token(), keep)
	w.net.Sim.Run()
	if info == nil {
		t.Fatal("no info reply")
	}
	if info.Token != w.client.Token() || info.SndUna != 100_000 || info.AppNxt != 100_000 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Subflows) != 1 {
		t.Fatalf("info subflows = %d", len(info.Subflows))
	}
	sf := info.Subflows[0]
	if sf.SRTT <= 0 || sf.Cwnd == 0 || sf.PacingRate == 0 {
		t.Fatalf("subflow info = %+v", sf)
	}
	// Unknown token → nil.
	called := false
	w.lib.GetInfo(12345, func(i *nlmsg.ConnInfo) { called = true; keep(i) })
	w.net.Sim.Run()
	if !called || info != nil {
		t.Fatalf("bogus get-info: called=%v info=%v", called, info)
	}
}

// TestWirePoolConservation drains a run with get-info traffic and checks
// the frame ownership contract end to end: every frame a sender took from
// nlmsg.Wire went back exactly once, and nothing else was slipped into
// the pool — an undersized heap buffer recycled there would make a later
// coalesced flush grow it.
func TestWirePoolConservation(t *testing.T) {
	// drain empties the free list, handing each pooled buffer to check.
	drain := func(check func(b []byte)) {
		for {
			news := nlmsg.Wire.Stats().News
			b := nlmsg.Wire.Get()
			if nlmsg.Wire.Stats().News != news {
				return // free list exhausted: b is fresh
			}
			check(b)
		}
	}
	drain(func([]byte) {}) // whatever earlier tests left behind
	before := nlmsg.Wire.Stats()

	w := newWorld(t, 5, Callbacks{})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	w.client.Write(100_000)
	replies := 0
	for i := 0; i < 5; i++ {
		w.lib.GetInfo(w.client.Token(), func(i *nlmsg.ConnInfo) {
			if i != nil {
				replies++
			}
		})
		w.net.Sim.RunFor(10 * time.Millisecond)
	}
	w.net.Sim.Run()
	if replies != 5 {
		t.Fatalf("got %d info replies, want 5", replies)
	}

	after := nlmsg.Wire.Stats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets == 0 || gets != puts {
		t.Fatalf("wire pool not conserved over the run: %d gets, %d puts", gets, puts)
	}
	drain(func(b []byte) {
		if cap(b) < 2048 {
			t.Fatalf("free list holds an undersized buffer (cap %d): it never came from Get", cap(b))
		}
	})
}

func TestSetBackupCommand(t *testing.T) {
	w := newWorld(t, 6, Callbacks{})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	ft := w.client.Subflows()[0].Tuple()
	var errno uint32 = 999
	w.lib.SetBackup(w.client.Token(), ft, true, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != 0 {
		t.Fatalf("set-backup errno = %d", errno)
	}
	if !w.client.Subflows()[0].Backup() {
		t.Fatal("backup flag not set")
	}
	if !w.server.Subflows()[0].Backup() {
		t.Fatal("MP_PRIO not propagated to the peer")
	}
}

func TestTimeoutEventsOverNetlink(t *testing.T) {
	var timeouts []*nlmsg.Event
	w := newWorld(t, 7, Callbacks{Timeout: func(e *nlmsg.Event) { c := *e; timeouts = append(timeouts, &c) }})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	w.net.Path[0].SetLoss(1.0)
	w.client.Write(5000)
	w.net.Sim.RunFor(10 * time.Second)
	if len(timeouts) < 3 {
		t.Fatalf("timeout events = %d", len(timeouts))
	}
	for i := 1; i < len(timeouts); i++ {
		if timeouts[i].RTO < timeouts[i-1].RTO {
			t.Fatalf("RTO not growing: %v", timeouts)
		}
		if timeouts[i].Backoffs != timeouts[i-1].Backoffs+1 {
			t.Fatalf("backoff counts not consecutive")
		}
	}
}

func TestAnnounceAddrCommand(t *testing.T) {
	w := newWorld(t, 8, Callbacks{})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	var errno uint32 = 999
	w.lib.AnnounceAddr(w.client.Token(), w.net.ClientAddrs[1], 0, func(e uint32) { errno = e })
	w.net.Sim.Run()
	if errno != 0 {
		t.Fatalf("announce errno = %d", errno)
	}
	if len(w.server.PeerAddrs()) != 1 {
		t.Fatal("ADD_ADDR not delivered")
	}
}

func TestLocalAddrEventsOverNetlink(t *testing.T) {
	var ups, downs []*nlmsg.Event
	w := newWorld(t, 9, Callbacks{
		LocalAddrUp:   func(e *nlmsg.Event) { c := *e; ups = append(ups, &c) },
		LocalAddrDown: func(e *nlmsg.Event) { c := *e; downs = append(downs, &c) },
	})
	w.net.Sim.RunFor(time.Millisecond)
	w.net.Client.SetIfaceUp(w.net.ClientAddrs[1], false)
	w.net.Client.SetIfaceUp(w.net.ClientAddrs[1], true)
	w.net.Sim.Run()
	if len(downs) != 1 || len(ups) != 1 {
		t.Fatalf("addr events: up=%d down=%d", len(ups), len(downs))
	}
	if downs[0].Addr != w.net.ClientAddrs[1] {
		t.Fatalf("down addr = %v", downs[0].Addr)
	}
}

func TestNetlinkLatencyIsMicroseconds(t *testing.T) {
	// The simulated transport should cost ~10µs one way: measure the gap
	// between kernel-side event timestamp and controller delivery time.
	s := sim.New(10)
	tr := NewSimTransport(s)
	var sent, recv []sim.Time
	tr.ToUser.SetReceiver(func(b []byte) { recv = append(recv, s.Now()) })
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i)*time.Millisecond, "emit", func() {
			sent = append(sent, s.Now())
			tr.ToUser.Send([]byte{0})
		})
	}
	s.Run()
	var total time.Duration
	for i := range sent {
		total += time.Duration(recv[i] - sent[i])
	}
	mean := total / time.Duration(len(sent))
	if mean < 8*time.Microsecond || mean > 16*time.Microsecond {
		t.Fatalf("mean one-way latency = %v, want ≈11.5µs", mean)
	}
}

func TestSimPipeFIFO(t *testing.T) {
	s := sim.New(11)
	p := NewSimPipe(s, LatencyModel(s.Rand(), time.Microsecond, 50*time.Microsecond))
	var got []byte
	p.SetReceiver(func(b []byte) { got = append(got, b[0]) })
	for i := 0; i < 50; i++ {
		p.Send([]byte{byte(i)})
	}
	s.Run()
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("pipe reordered messages: %v", got)
		}
	}
	if p.Delivered != 50 {
		t.Fatalf("delivered = %d", p.Delivered)
	}
}

// TestSimPipeSendAllocFree pins the pipe's delivery path: a frame crosses
// on a pooled event out of the pipe's own FIFO, so steady-state Netlink
// delivery allocates nothing, every frame goes back to nlmsg.Wire, and
// order holds on an entity clock even when each latency draw is shorter
// than the one before (the due time is then clamped, and ties fire in
// send order).
func TestSimPipeSendAllocFree(t *testing.T) {
	w := sim.NewWorld(11, 1)
	draw := 0
	p := NewSimPipe(w.HostClock(0, "h"), func() time.Duration {
		draw++
		return time.Duration(64-draw%64) * time.Microsecond
	})
	var next, bad byte
	p.SetReceiver(func(b []byte) {
		if b[0] != next {
			bad++
		}
		next++
	})
	var seq byte
	burst := func() {
		for i := 0; i < 40; i++ { // a draw cycle and a burst never line up
			p.Send(append(nlmsg.Wire.Get(), seq))
			seq++
		}
		w.RunFor(time.Millisecond)
	}
	before := nlmsg.Wire.Stats()
	for i := 0; i < 8; i++ {
		burst()
	}
	if bad != 0 || next != seq || p.Delivered != 8*40 {
		t.Fatalf("%d of %d frames delivered, %d out of order", p.Delivered, 8*40, bad)
	}
	if !testutil.RaceEnabled { // alloc counts differ under -race
		if avg := testing.AllocsPerRun(200, burst); avg != 0 {
			t.Fatalf("SimPipe send+deliver allocates %.2f allocs per 40 frames, want 0", avg)
		}
	}
	if bad != 0 || next != seq {
		t.Fatalf("pipe reordered %d frames", bad)
	}
	after := nlmsg.Wire.Stats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts || gets != p.Delivered {
		t.Fatalf("nlmsg.Wire: %d gets, %d puts for %d delivered frames", gets, puts, p.Delivered)
	}
}

// TestGetInfoRoundTripAllocFree pins a refresh poll's control-plane round
// trip — Library.GetInfo, the SimPipe both ways, NetlinkPM's snapshot and
// reply, the in-place decode and the callback — at zero allocations once
// one reply as large has been through. The connection has six subflows,
// so the reply also spills past a Message's inline attributes.
func TestGetInfoRoundTripAllocFree(t *testing.T) {
	w := newWorld(t, 7, Callbacks{})
	w.net.Sim.RunFor(time.Millisecond)
	w.connect(t)
	w.net.Sim.Run()
	for i := 0; i < 5; i++ {
		ft := seg.FourTuple{SrcIP: w.net.ClientAddrs[i%2], DstIP: w.net.ServerAddr, DstPort: 80}
		w.lib.CreateSubflow(w.client.Token(), ft, false, nil)
	}
	w.net.Sim.Run()
	if n := len(w.client.Subflows()); n != 6 {
		t.Fatalf("connection has %d subflows, want 6", n)
	}
	token := w.client.Token()
	var want nlmsg.ConnInfo
	polls, replies, bad := 0, 0, 0
	done := func(info *nlmsg.ConnInfo) {
		replies++
		w.client.FillInfo(&want)
		if info == nil || info.Token != want.Token || info.SndUna != want.SndUna ||
			!slices.Equal(info.Subflows, want.Subflows) {
			bad++
		}
	}
	poll := func() {
		polls++
		w.lib.GetInfo(token, done)
		w.net.Sim.RunFor(time.Millisecond)
	}
	poll()
	if !testutil.RaceEnabled { // alloc counts differ under -race
		if avg := testing.AllocsPerRun(100, poll); avg != 0 {
			t.Fatalf("a get-info poll allocates %.2f objects, want 0", avg)
		}
	}
	if replies != polls || bad != 0 || len(want.Subflows) != 6 {
		t.Fatalf("%d polls, %d replies, %d not matching the connection's snapshot of %d subflows",
			polls, replies, bad, len(want.Subflows))
	}
}

// TestSimPipeBacklogStaysBounded keeps nine frames in flight for ten
// thousand sends, so the FIFO never drains: it must reuse the space of
// delivered frames instead of growing with the total sent.
func TestSimPipeBacklogStaysBounded(t *testing.T) {
	s := sim.New(11)
	p := NewSimPipe(s, func() time.Duration { return 10 * time.Microsecond })
	var next, bad uint16
	p.SetReceiver(func(b []byte) {
		if uint16(b[0])|uint16(b[1])<<8 != next {
			bad++
		}
		next++
	})
	for i := 0; i < 10000; i++ {
		p.Send([]byte{byte(i), byte(i >> 8)})
		s.RunFor(time.Microsecond)
	}
	if len(p.inflight)-p.head != 9 {
		t.Fatalf("%d frames in flight, want a standing 9", len(p.inflight)-p.head)
	}
	if cap(p.inflight) > 64 {
		t.Fatalf("FIFO grew to %d slots for 9 frames in flight", cap(p.inflight))
	}
	s.Run()
	if bad != 0 || next != 10000 {
		t.Fatalf("delivered %d of 10000 frames, %d out of order", next, bad)
	}
}

func TestSocketPipeFraming(t *testing.T) {
	// Messages written through a SocketPipe and read back with
	// ReadMessages survive framing over a byte stream.
	var buf bytes.Buffer
	p := NewSocketPipe(&buf)
	var msgs [][]byte
	for i := 0; i < 10; i++ {
		ev := &nlmsg.Event{Kind: nlmsg.EvTimeout, Token: uint32(i), RTO: time.Duration(i) * time.Second}
		b := ev.AppendMarshal(nil, uint32(i), 1)
		// Send transfers ownership of b (it is recycled into nlmsg.Wire),
		// so keep an independent copy for the comparison below.
		msgs = append(msgs, append([]byte(nil), b...))
		p.Send(b)
	}
	count := 0
	err := ReadMessages(&buf, func(b []byte) {
		if !bytes.Equal(b, msgs[count]) {
			t.Fatalf("message %d corrupted", count)
		}
		count++
	})
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("ReadMessages err = %v", err)
	}
	if count != 10 {
		t.Fatalf("read %d messages", count)
	}
}

func TestLibraryIgnoresGarbage(t *testing.T) {
	s := sim.New(12)
	tr := NewSimTransport(s)
	lib := NewLibrary(tr, SimClock{s}, 1)
	lib.OnMessage([]byte{1, 2, 3})
	if lib.Stats.ParseErrors != 1 {
		t.Fatal("garbage not counted")
	}
	// Orphaned reply (no pending seq).
	lib.OnMessage(nlmsg.AppendAck(nil, 0, 999, 1))
	if lib.Stats.RepliesOrphaned != 1 {
		t.Fatal("orphan reply not counted")
	}
}

// ctlWorld wires just a transport, PM and recording library — no network —
// for driving the coalescing machinery with synthetic events.
type ctlWorld struct {
	s      *sim.Simulator
	tr     *Transport
	pm     *NetlinkPM
	lib    *Library
	events []nlmsg.Event
}

func newCtlWorld(t *testing.T, seed int64) *ctlWorld {
	t.Helper()
	w := &ctlWorld{s: sim.New(seed)}
	w.tr = NewSimTransport(w.s)
	w.pm = NewNetlinkPM(w.s, w.tr)
	w.lib = NewLibrary(w.tr, SimClock{w.s}, 1)
	rec := func(ev *nlmsg.Event) { w.events = append(w.events, *ev) }
	w.lib.Register(Callbacks{
		Created: rec, Established: rec, Closed: rec,
		SubEstablished: rec, SubClosed: rec,
		AddAddr: rec, RemAddr: rec, Timeout: rec,
		LocalAddrUp: rec, LocalAddrDown: rec,
	}, nil)
	w.s.RunFor(time.Millisecond) // let the subscription land
	return w
}

func TestCoalescedFlushBatchesFrames(t *testing.T) {
	w := newCtlWorld(t, 20)
	w.pm.SetCoalescing(500*time.Microsecond, 8)
	framesBefore := w.tr.ToUser.(*SimPipe).Delivered
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: 1, RTO: time.Second})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: 2, RTO: time.Second})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: 3, RTO: time.Second})
	w.s.Run()
	if got := w.tr.ToUser.(*SimPipe).Delivered - framesBefore; got != 1 {
		t.Fatalf("3 events crossed in %d frames, want 1", got)
	}
	if w.pm.Flushes != 1 || w.pm.EventsSent != 3 {
		t.Fatalf("flushes=%d sent=%d, want 1/3", w.pm.Flushes, w.pm.EventsSent)
	}
	if len(w.events) != 3 {
		t.Fatalf("delivered %d events, want 3", len(w.events))
	}
	for i, ev := range w.events {
		if ev.Token != uint32(i+1) {
			t.Fatalf("event order broken: %+v", w.events)
		}
	}
	// A second window must re-arm the flush timer.
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: 4, RTO: time.Second})
	w.s.Run()
	if w.pm.Flushes != 2 || len(w.events) != 4 {
		t.Fatalf("second window: flushes=%d events=%d", w.pm.Flushes, len(w.events))
	}
}

func TestCoalescingCancelsSupersededPairs(t *testing.T) {
	w := newCtlWorld(t, 21)
	w.pm.SetCoalescing(time.Millisecond, 32)
	ft := seg.FourTuple{SrcPort: 1, DstPort: 2}
	// Subflow came and went inside one window: both events vanish.
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvSubEstablished, Token: 7, Tuple: ft, HasTuple: true})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvSubClosed, Token: 7, Tuple: ft, HasTuple: true, Errno: 103})
	// Whole connection came and went: created+estab+closed all vanish.
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvCreated, Token: 8})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvEstablished, Token: 8})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvClosed, Token: 8})
	// Addr flapped down and back inside one window: both vanish.
	addr := netip.MustParseAddr("10.0.0.1")
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvLocalAddrDown, Addr: addr})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvLocalAddrUp, Addr: addr})
	// A survivor, to prove unrelated events pass through untouched.
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: 9, RTO: time.Second})
	w.s.Run()
	if len(w.events) != 1 || w.events[0].Kind != nlmsg.EvTimeout || w.events[0].Token != 9 {
		t.Fatalf("delivered = %+v, want just the timeout", w.events)
	}
	if w.pm.EventsCoalesced != 7 {
		t.Fatalf("coalesced = %d, want 7", w.pm.EventsCoalesced)
	}
	if w.pm.EventsSent != 1 {
		t.Fatalf("sent = %d, want 1", w.pm.EventsSent)
	}
}

func TestCoalescingClosedWithoutCreatedStillDelivered(t *testing.T) {
	// The connection existed before the window opened: closed must still
	// reach the subscriber even though it swallows queued same-token events.
	w := newCtlWorld(t, 22)
	w.pm.SetCoalescing(time.Millisecond, 32)
	ft := seg.FourTuple{SrcPort: 3, DstPort: 4}
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvSubEstablished, Token: 5, Tuple: ft, HasTuple: true})
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvClosed, Token: 5})
	w.s.Run()
	if len(w.events) != 1 || w.events[0].Kind != nlmsg.EvClosed {
		t.Fatalf("delivered = %+v, want just closed", w.events)
	}
	if w.pm.EventsCoalesced != 1 {
		t.Fatalf("coalesced = %d, want 1 (the queued sub_estab)", w.pm.EventsCoalesced)
	}
}

func TestBackpressureDropsOldest(t *testing.T) {
	w := newCtlWorld(t, 23)
	w.pm.SetCoalescing(time.Millisecond, 4)
	for i := 1; i <= 6; i++ {
		w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: uint32(i), RTO: time.Second})
	}
	w.s.Run()
	if w.pm.EventsDropped != 2 {
		t.Fatalf("dropped = %d, want 2", w.pm.EventsDropped)
	}
	if len(w.events) != 4 {
		t.Fatalf("delivered %d events, want 4", len(w.events))
	}
	for i, ev := range w.events {
		if ev.Token != uint32(i+3) { // oldest two (1, 2) were dropped
			t.Fatalf("survivors = %+v, want tokens 3..6", w.events)
		}
	}
}

// TestBackpressureKeepsCreated overflows a full queue behind a created: the
// timeouts behind it are dropped oldest first, and the created, which no
// later event can stand in for, is delivered.
func TestBackpressureKeepsCreated(t *testing.T) {
	w := newCtlWorld(t, 23)
	w.pm.SetCoalescing(time.Millisecond, 4)
	w.pm.send(&nlmsg.Event{Kind: nlmsg.EvCreated, Token: 100})
	for i := 1; i <= 5; i++ {
		w.pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: uint32(i), RTO: time.Second})
	}
	w.s.Run()
	if w.pm.EventsDropped != 2 {
		t.Fatalf("dropped = %d, want 2", w.pm.EventsDropped)
	}
	want := []uint32{100, 3, 4, 5}
	if len(w.events) != len(want) {
		t.Fatalf("delivered %+v, want tokens %v", w.events, want)
	}
	for i, ev := range w.events {
		if ev.Token != want[i] || (i == 0) != (ev.Kind == nlmsg.EvCreated) {
			t.Fatalf("delivered %+v, want the created (token 100), then timeouts 3..5", w.events)
		}
	}

	// A queue that holds only createds drops its oldest.
	w = newCtlWorld(t, 23)
	w.pm.SetCoalescing(time.Millisecond, 4)
	for i := 1; i <= 6; i++ {
		w.pm.send(&nlmsg.Event{Kind: nlmsg.EvCreated, Token: uint32(i)})
	}
	w.s.Run()
	if w.pm.EventsDropped != 2 || len(w.events) != 4 || w.events[0].Token != 3 {
		t.Fatalf("all createds: dropped %d, delivered %+v; want 2 dropped, tokens 3..6", w.pm.EventsDropped, w.events)
	}
}

func TestLibraryTimer(t *testing.T) {
	s := sim.New(13)
	tr := NewSimTransport(s)
	lib := NewLibrary(tr, SimClock{s}, 1)
	fired := 0
	lib.Clock().After(100*time.Millisecond, func() { fired++ })
	cancel := lib.Clock().After(200*time.Millisecond, func() { fired++ })
	cancel()
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (one cancelled)", fired)
	}
	if lib.Clock().Now() != 100*time.Millisecond {
		t.Fatalf("clock = %v", lib.Clock().Now())
	}
}

// TestLibraryPendingFIFO drives the library's pending-reply FIFO with acks
// in and out of order. A reply matches its command wherever it sits in the
// queue, each done runs once with its own errno, a reply for a seq nobody
// waits for (never sent, or already answered) is an orphan, and a command
// whose reply never comes stays queued without blocking the ones behind it.
func TestLibraryPendingFIFO(t *testing.T) {
	for _, tc := range []struct {
		name     string
		acks     []uint32 // seqs acked, in arrival order; command k has seq k
		want     []uint32 // commands whose done ran, in order
		orphaned uint64
		left     int // commands still pending at the end
	}{
		{"in order", []uint32{1, 2, 3, 4}, []uint32{1, 2, 3, 4}, 0, 0},
		{"swapped", []uint32{2, 1, 4, 3}, []uint32{2, 1, 4, 3}, 0, 0},
		{"reversed", []uint32{4, 3, 2, 1}, []uint32{4, 3, 2, 1}, 0, 0},
		{"duplicated", []uint32{1, 1, 2, 3, 2, 4}, []uint32{1, 2, 3, 4}, 2, 0},
		{"missing head", []uint32{2, 3, 4}, []uint32{2, 3, 4}, 0, 1},
		{"missing middle", []uint32{1, 3, 4}, []uint32{1, 3, 4}, 0, 1},
		{"unknown seq", []uint32{1, 999, 2, 3, 4}, []uint32{1, 2, 3, 4}, 1, 0},
	} {
		s := sim.New(13)
		lib := NewLibrary(NewSimTransport(s), SimClock{s}, 1)
		var got []uint32
		for k := uint32(1); k <= 4; k++ {
			lib.CreateSubflow(7, seg.FourTuple{SrcPort: uint16(k)}, false, func(errno uint32) {
				if errno != 100+k {
					t.Errorf("%s: command %d got errno %d", tc.name, k, errno)
				}
				got = append(got, k)
			})
		}
		for _, seq := range tc.acks {
			lib.OnMessage(nlmsg.AppendAck(nil, 100+seq, seq, 1))
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: done ran for %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: done ran for %v, want %v", tc.name, got, tc.want)
			}
		}
		if lib.Stats.RepliesMatched != uint64(len(tc.want)) || lib.Stats.RepliesOrphaned != tc.orphaned {
			t.Fatalf("%s: matched %d orphaned %d, want %d and %d", tc.name,
				lib.Stats.RepliesMatched, lib.Stats.RepliesOrphaned, len(tc.want), tc.orphaned)
		}
		if n := len(lib.pending); n != tc.left {
			t.Fatalf("%s: %d commands left pending, want %d", tc.name, n, tc.left)
		}
		// Whatever is stuck, a later command is answered.
		late := false
		lib.RemoveSubflow(7, seg.FourTuple{}, func(uint32) { late = true })
		lib.OnMessage(nlmsg.AppendAck(nil, 0, 5, 1))
		if !late {
			t.Fatalf("%s: a command sent after the table was not answered", tc.name)
		}
	}
}

// TestLibraryPendingStaysBounded keeps one command unanswered while many
// more come and go: the queue holds the live entries and nothing else.
func TestLibraryPendingStaysBounded(t *testing.T) {
	s := sim.New(14)
	lib := NewLibrary(NewSimTransport(s), SimClock{s}, 1)
	lib.CreateSubflow(7, seg.FourTuple{}, false, nil) // seq 1: never answered
	for seq := uint32(2); seq < 5000; seq++ {
		lib.CreateSubflow(7, seg.FourTuple{}, false, nil)
		lib.OnMessage(nlmsg.AppendAck(nil, 0, seq, 1))
	}
	if lib.Stats.RepliesMatched != 4998 || len(lib.pending) != 1 || cap(lib.pending) > 16 {
		t.Fatalf("matched %d, %d live entries in a queue of capacity %d",
			lib.Stats.RepliesMatched, len(lib.pending), cap(lib.pending))
	}
}
