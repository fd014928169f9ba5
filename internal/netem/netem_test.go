package netem

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

var (
	ipA = netip.MustParseAddr("10.0.0.1")
	ipB = netip.MustParseAddr("10.0.1.1")
	ipC = netip.MustParseAddr("10.0.2.1")
)

// sink collects delivered packets with timestamps.
type sink struct {
	name string
	sim  *sim.Simulator
	got  []*Packet
	at   []sim.Time
}

func (s *sink) Input(p *Packet) {
	s.got = append(s.got, p)
	s.at = append(s.at, s.sim.Now())
}
func (s *sink) Name() string     { return s.name }
func (s *sink) Clock() sim.Clock { return s.sim }

func mkpkt(src, dst netip.Addr, payload int) *Packet {
	return NewPacket(&seg.Segment{
		Tuple:      seg.FourTuple{SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80},
		Flags:      seg.ACK,
		PayloadLen: payload,
	})
}

func TestLinkTiming(t *testing.T) {
	s := sim.New(1)
	dst := &sink{name: "dst", sim: s}
	// 8 Mbps, 10 ms delay: a 1000-byte packet serialises in 1 ms.
	l := NewLink(s, "l", dst, LinkConfig{RateBps: 8e6, Delay: 10 * time.Millisecond})
	pkt := mkpkt(ipA, ipB, 1000-20-ipOverhead)
	if pkt.Size != 1000 {
		t.Fatalf("pkt.Size = %d, want 1000", pkt.Size)
	}
	l.Send(pkt)
	l.Send(mkpkt(ipA, ipB, 1000-20-ipOverhead)) // queued behind the first
	s.Run()
	if len(dst.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.got))
	}
	if dst.at[0] != 11*sim.Millisecond {
		t.Fatalf("first delivery at %v, want 11ms", dst.at[0])
	}
	if dst.at[1] != 12*sim.Millisecond {
		t.Fatalf("second delivery at %v, want 12ms (serialisation back-to-back)", dst.at[1])
	}
	if l.Stats.Sent != 2 || l.Stats.Bytes != 2000 {
		t.Fatalf("stats = %+v", l.Stats)
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	s := sim.New(1)
	dst := &sink{name: "dst", sim: s}
	l := NewLink(s, "l", dst, LinkConfig{Delay: 5 * time.Millisecond})
	l.Send(mkpkt(ipA, ipB, 100))
	s.Run()
	if dst.at[0] != 5*sim.Millisecond {
		t.Fatalf("delivery at %v, want exactly the propagation delay", dst.at[0])
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	s := sim.New(1)
	dst := &sink{name: "dst", sim: s}
	l := NewLink(s, "l", dst, LinkConfig{RateBps: 8e6, QueueCap: 5})
	for i := 0; i < 10; i++ {
		l.Send(mkpkt(ipA, ipB, 1000))
	}
	s.Run()
	if len(dst.got) != 5 {
		t.Fatalf("delivered %d, want 5", len(dst.got))
	}
	if l.Stats.DropQueue != 5 {
		t.Fatalf("queue drops = %d, want 5", l.Stats.DropQueue)
	}
}

func TestLinkQueueDrainsOverTime(t *testing.T) {
	s := sim.New(1)
	dst := &sink{name: "dst", sim: s}
	l := NewLink(s, "l", dst, LinkConfig{RateBps: 8e6, QueueCap: 5})
	// Send 5, let them serialise, send 5 more: all 10 must arrive.
	for i := 0; i < 5; i++ {
		l.Send(mkpkt(ipA, ipB, 1000))
	}
	s.RunFor(time.Second)
	for i := 0; i < 5; i++ {
		l.Send(mkpkt(ipA, ipB, 1000))
	}
	s.Run()
	if len(dst.got) != 10 || l.Stats.DropQueue != 0 {
		t.Fatalf("delivered %d (drops %d), want 10 (0)", len(dst.got), l.Stats.DropQueue)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	s := sim.New(42)
	dst := &sink{name: "dst", sim: s}
	l := NewLink(s, "l", dst, LinkConfig{Loss: 0.3, QueueCap: 100000})
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(mkpkt(ipA, ipB, 100))
	}
	s.Run()
	lossFrac := float64(l.Stats.LostRand) / n
	if lossFrac < 0.27 || lossFrac > 0.33 {
		t.Fatalf("observed loss %f, want ≈0.30", lossFrac)
	}
	if int(l.Stats.Sent)+int(l.Stats.LostRand) != n {
		t.Fatalf("sent+lost = %d, want %d", l.Stats.Sent+l.Stats.LostRand, n)
	}
}

func TestLinkDown(t *testing.T) {
	s := sim.New(1)
	dst := &sink{name: "dst", sim: s}
	l := NewLink(s, "l", dst, LinkConfig{})
	l.SetUp(false)
	l.Send(mkpkt(ipA, ipB, 100))
	s.Run()
	if len(dst.got) != 0 || l.Stats.DropDown != 1 {
		t.Fatalf("down link passed traffic: %+v", l.Stats)
	}
	l.SetUp(true)
	l.Send(mkpkt(ipA, ipB, 100))
	s.Run()
	if len(dst.got) != 1 {
		t.Fatal("restored link did not pass traffic")
	}
}

func TestLinkCutInFlight(t *testing.T) {
	s := sim.New(1)
	dst := &sink{name: "dst", sim: s}
	l := NewLink(s, "l", dst, LinkConfig{Delay: 10 * time.Millisecond})
	l.Send(mkpkt(ipA, ipB, 100))
	s.RunFor(5 * time.Millisecond)
	l.SetUp(false)
	s.Run()
	if len(dst.got) != 0 {
		t.Fatal("packet survived a link cut while in flight")
	}
}

func TestHostRoutingAndWatchers(t *testing.T) {
	s := sim.New(1)
	peer := &sink{name: "peer", sim: s}
	h := NewHost(s, "h")
	l1 := NewLink(s, "l1", peer, LinkConfig{})
	l2 := NewLink(s, "l2", peer, LinkConfig{})
	h.AddIface("eth0", ipA, l1)
	h.AddIface("eth1", ipB, l2)

	var events []string
	h.WatchAddrs(func(a netip.Addr, up bool) {
		if up {
			events = append(events, "up:"+a.String())
		} else {
			events = append(events, "down:"+a.String())
		}
	})

	h.Send(mkpkt(ipA, ipC, 10))
	h.Send(mkpkt(ipB, ipC, 10))
	s.Run()
	if l1.Stats.Sent != 1 || l2.Stats.Sent != 1 {
		t.Fatalf("packets not routed by source address: l1=%d l2=%d", l1.Stats.Sent, l2.Stats.Sent)
	}

	h.Send(mkpkt(ipC, ipA, 10)) // no such interface
	if h.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", h.Stats.NoRoute)
	}

	h.SetIfaceUp(ipA, false)
	h.SetIfaceUp(ipA, false) // no duplicate event
	h.Send(mkpkt(ipA, ipC, 10))
	if h.Stats.NoRoute != 2 {
		t.Fatal("down interface still routes")
	}
	h.SetIfaceUp(ipA, true)
	if len(events) != 2 || events[0] != "down:10.0.0.1" || events[1] != "up:10.0.0.1" {
		t.Fatalf("watcher events = %v", events)
	}
	if got := h.Addrs(); len(got) != 2 {
		t.Fatalf("Addrs = %v", got)
	}
	h.SetIfaceUp(ipB, false)
	if got := h.Addrs(); len(got) != 1 || got[0] != ipA {
		t.Fatalf("Addrs after down = %v", got)
	}
}

func TestHostHandlerAndProcDelay(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h")
	var at []sim.Time
	h.SetHandler(func(p *Packet) { at = append(at, s.Now()) })
	h.SetProcDelay(func() time.Duration { return 25 * time.Microsecond })
	h.Input(mkpkt(ipC, ipA, 10))
	s.Run()
	if len(at) != 1 || at[0] != 25*sim.Microsecond {
		t.Fatalf("handler at %v, want 25µs", at)
	}
	if h.Stats.Delivered != 1 {
		t.Fatalf("Delivered = %d", h.Stats.Delivered)
	}
}

func TestRouterECMP(t *testing.T) {
	s := sim.New(1)
	r := NewRouter(s, "r", 7)
	sinks := make([]*sink, 4)
	links := make([]*Link, 4)
	for i := range sinks {
		sinks[i] = &sink{name: "s", sim: s}
		links[i] = NewLink(s, "l", sinks[i], LinkConfig{})
	}
	r.AddRoute(ipB, links...)

	// Many flows with different source ports must spread over the group,
	// and each flow must stick to one path.
	counts := make([]int, 4)
	for port := 0; port < 400; port++ {
		p := NewPacket(&seg.Segment{
			Tuple: seg.FourTuple{SrcIP: ipA, DstIP: ipB, SrcPort: uint16(10000 + port), DstPort: 80},
			Flags: seg.ACK,
		})
		idx := r.PathFor(ipB, p)
		counts[idx]++
		for k := 0; k < 3; k++ {
			if r.PathFor(ipB, p) != idx {
				t.Fatal("ECMP not per-flow stable")
			}
		}
		r.Input(p)
	}
	s.Run()
	for i, c := range counts {
		if c < 50 {
			t.Fatalf("path %d got only %d of 400 flows: skewed hash %v", i, c, counts)
		}
		if int(links[i].Stats.Sent) != c {
			t.Fatalf("link %d sent %d, PathFor predicted %d", i, links[i].Stats.Sent, c)
		}
	}
}

func TestRouterSymmetricPaths(t *testing.T) {
	s := sim.New(1)
	r := NewRouter(s, "r", 9)
	links := make([]*Link, 4)
	for i := range links {
		links[i] = NewLink(s, "l", &sink{name: "s", sim: s}, LinkConfig{})
	}
	r.AddRoute(ipB, links...)
	r.AddRoute(ipA, links...)
	ft := seg.FourTuple{SrcIP: ipA, DstIP: ipB, SrcPort: 5555, DstPort: 80}
	fwd := NewPacket(&seg.Segment{Tuple: ft, Flags: seg.ACK})
	rev := NewPacket(&seg.Segment{Tuple: ft.Reverse(), Flags: seg.ACK})
	if r.PathFor(ipB, fwd) != r.PathFor(ipA, rev) {
		t.Fatal("forward and reverse directions hash to different paths")
	}
}

func TestRouterDefaultAndNoRoute(t *testing.T) {
	s := sim.New(1)
	r := NewRouter(s, "r", 0)
	dst := &sink{name: "dst", sim: s}
	r.Input(mkpkt(ipA, ipB, 10))
	if r.Stats.NoRoute != 1 {
		t.Fatal("missing route not counted")
	}
	if r.PathFor(ipB, mkpkt(ipA, ipB, 1)) != -1 {
		t.Fatal("PathFor on no route should be -1")
	}
	r.SetDefault(NewLink(s, "l", dst, LinkConfig{}))
	r.Input(mkpkt(ipA, ipB, 10))
	s.Run()
	if len(dst.got) != 1 {
		t.Fatal("default route unused")
	}
}

func TestMiddleboxIdleExpiry(t *testing.T) {
	s := sim.New(1)
	a := &sink{name: "a", sim: s}
	b := &sink{name: "b", sim: s}
	m := NewMiddlebox(s, "nat", 180*time.Second, ExpiryDrop)
	m.AddRoute(ipA, NewLink(s, "toA", a, LinkConfig{}))
	m.AddRoute(ipB, NewLink(s, "toB", b, LinkConfig{}))

	syn := NewPacket(&seg.Segment{Tuple: seg.FourTuple{SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2}, Flags: seg.SYN})
	m.Input(syn)
	s.Run()
	if len(b.got) != 1 {
		t.Fatal("SYN not forwarded")
	}
	if m.FlowCount() != 1 {
		t.Fatalf("FlowCount = %d", m.FlowCount())
	}

	// Activity within the timeout refreshes state — traffic passes.
	s.RunFor(100 * time.Second)
	m.Input(mkpktTuple(ipA, ipB, 1, 2))
	s.RunFor(100 * time.Second)
	m.Input(mkpktTuple(ipB, ipA, 2, 1)) // reverse direction refreshes too
	s.Run()
	if len(b.got) != 2 || len(a.got) != 1 {
		t.Fatalf("mid-flow refresh failed: a=%d b=%d", len(a.got), len(b.got))
	}

	// Silence past the timeout: next packet is eaten.
	s.RunFor(200 * time.Second)
	m.Input(mkpktTuple(ipA, ipB, 1, 2))
	s.Run()
	if len(b.got) != 2 {
		t.Fatal("packet traversed expired NAT state")
	}
	if m.Stats.Expired != 1 {
		t.Fatalf("Expired = %d", m.Stats.Expired)
	}
	if m.FlowCount() != 0 {
		t.Fatalf("FlowCount after expiry = %d", m.FlowCount())
	}

	// A fresh SYN reinstalls state.
	m.Input(syn)
	s.Run()
	if len(b.got) != 3 {
		t.Fatal("re-SYN did not reinstall state")
	}
}

func TestMiddleboxRSTPolicy(t *testing.T) {
	s := sim.New(1)
	a := &sink{name: "a", sim: s}
	b := &sink{name: "b", sim: s}
	m := NewMiddlebox(s, "fw", 10*time.Second, ExpiryRST)
	m.AddRoute(ipA, NewLink(s, "toA", a, LinkConfig{}))
	m.AddRoute(ipB, NewLink(s, "toB", b, LinkConfig{}))
	m.Input(NewPacket(&seg.Segment{Tuple: seg.FourTuple{SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2}, Flags: seg.SYN}))
	s.RunFor(60 * time.Second)
	m.Input(mkpktTuple(ipA, ipB, 1, 2))
	s.Run()
	if m.Stats.RSTInjected != 1 {
		t.Fatalf("RSTInjected = %d, want 1", m.Stats.RSTInjected)
	}
	// The RST goes back to the sender (host A).
	last := a.got[len(a.got)-1]
	if !last.Seg.Is(seg.RST) {
		t.Fatalf("host A got %v, want RST", last.Seg)
	}
	if last.Seg.Tuple.SrcPort != 2 || last.Seg.Tuple.DstPort != 1 {
		t.Fatalf("RST tuple not reversed: %v", last.Seg.Tuple)
	}
}

func mkpktTuple(src, dst netip.Addr, sp, dp uint16) *Packet {
	return NewPacket(&seg.Segment{
		Tuple: seg.FourTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp},
		Flags: seg.ACK, PayloadLen: 10,
	})
}

// Property: FlowHash is direction-symmetric and deterministic, and distinct
// seeds give (almost always) different assignments over many tuples.
func TestQuickFlowHashSymmetry(t *testing.T) {
	f := func(sp, dp uint16, seed uint64) bool {
		ft := seg.FourTuple{SrcIP: ipA, DstIP: ipB, SrcPort: sp, DstPort: dp}
		return FlowHash(ft, seed) == FlowHash(ft.Reverse(), seed) &&
			FlowHash(ft, seed) == FlowHash(ft, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplex(t *testing.T) {
	s := sim.New(1)
	a := &sink{name: "a", sim: s}
	b := &sink{name: "b", sim: s}
	d := NewDuplex("d", a, b, LinkConfig{Delay: time.Millisecond})
	d.AB.Send(mkpkt(ipA, ipB, 10))
	d.BA.Send(mkpkt(ipB, ipA, 10))
	s.Run()
	if len(a.got) != 1 || len(b.got) != 1 {
		t.Fatal("duplex halves misrouted")
	}
	d.SetLoss(1.0)
	d.AB.Send(mkpkt(ipA, ipB, 10))
	s.Run()
	if len(b.got) != 1 {
		t.Fatal("SetLoss(1.0) did not drop")
	}
	d.SetUp(false)
	if d.AB.Up() || d.BA.Up() {
		t.Fatal("SetUp(false) incomplete")
	}
}

// TestOneEventPerHop pins the event count: one event per delivered packet
// per link, none for a packet the link drops.
func TestOneEventPerHop(t *testing.T) {
	s := sim.New(1)
	rx := &sink{name: "rx", sim: s}
	mid := NewRouter(s, "mid", 1)
	hop2 := NewLink(s, "hop2", rx, LinkConfig{RateBps: 8e6, Delay: time.Millisecond})
	mid.SetDefault(hop2)
	hop1 := NewLink(s, "hop1", mid, LinkConfig{RateBps: 8e6, Delay: time.Millisecond, QueueCap: 4})
	for i := 0; i < 10; i++ { // six of the ten overflow hop1's queue
		hop1.Send(mkpkt(ipA, ipB, 1000))
	}
	s.Run()
	if hop1.Stats.DropQueue != 6 || len(rx.got) != 4 {
		t.Fatalf("hop1 dropped %d, rx got %d, want 6 and 4", hop1.Stats.DropQueue, len(rx.got))
	}
	if s.Processed() != 8 {
		t.Fatalf("%d events for 4 packets over 2 hops, want 8", s.Processed())
	}
	lossy := NewLink(s, "lossy", rx, LinkConfig{RateBps: 8e6, Loss: 1})
	hop1.SetUp(false)
	hop1.Send(mkpkt(ipA, ipB, 1000))
	lossy.Send(mkpkt(ipA, ipB, 1000))
	s.Run()
	if s.Processed() != 8 || hop1.Stats.DropDown != 1 || lossy.Stats.LostRand != 1 {
		t.Fatalf("%d events after two dropped packets, want 8 still", s.Processed())
	}
}

// TestCrossShardDuplexNamesItself: a duplex half spells out its name only
// when something asks for it, and the one thing a build asks for it is a
// zero-delay half between two shards, which the World rejects by name.
func TestCrossShardDuplexNamesItself(t *testing.T) {
	w := sim.NewWorld(1, 2)
	a, b := NewHost(w.HostClock(0, "a"), "a"), NewHost(w.HostClock(1, "b"), "b")
	NewDuplex("wan", a, b, LinkConfig{})
	err := w.Finalize()
	if err == nil || !strings.Contains(err.Error(), `"wan:a->b"`) {
		t.Fatalf("Finalize = %v, want the zero-delay half wan:a->b named", err)
	}
}
