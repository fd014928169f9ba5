package netem

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestLinkDeliveryAllocFree pins the tentpole property: once pools are
// warm, pushing a pooled segment through host→link→host (the reserved
// serialisation end and the delivery event included) performs no heap
// allocation. A regression here means a make([]byte)/closure/Event
// allocation crept back into the per-packet path.
func TestLinkDeliveryAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := sim.New(1)
	src := netip.MustParseAddr("10.0.0.1")
	dstAddr := netip.MustParseAddr("10.0.0.2")

	rx := NewHost(s, "rx")
	delivered := 0
	rx.SetHandler(func(p *Packet) {
		delivered++
		p.Release() // consume: retire segment + shell
	})
	tx := NewHost(s, "tx")
	wire := NewLink(s, "wire", rx, LinkConfig{RateBps: 1e9, Delay: time.Millisecond})
	tx.AddIface("eth0", src, wire)

	send := func() {
		sg := seg.Shared.Get()
		sg.Tuple = seg.FourTuple{SrcIP: src, DstIP: dstAddr, SrcPort: 1000, DstPort: 80}
		sg.Seq, sg.Ack = 5, 6
		sg.Flags = seg.ACK | seg.PSH
		sg.Window = 1 << 20
		sg.PayloadLen = 1380
		d := sg.ScratchDSS()
		d.HasMap, d.DataSeq, d.MapLen = true, 99, 1380
		tx.Send(NewPacket(sg))
		s.RunFor(5 * time.Millisecond) // past serialisation and delivery
	}

	// Warm the segment/packet/event pools.
	for i := 0; i < 128; i++ {
		send()
	}
	before := delivered
	avg := testing.AllocsPerRun(2000, send)
	if delivered <= before {
		t.Fatal("packets were not delivered")
	}
	if avg > 0.05 {
		t.Fatalf("in-memory link delivery allocates %.2f allocs/op, want ~0", avg)
	}
}

// TestLinkDeliveryAllocFreeTraced repeats the alloc-free delivery check
// with a trace recorder attached to the link: the enqueue/deliver hooks
// must be stores into the preallocated ring, adding zero allocations to
// the per-packet path.
func TestLinkDeliveryAllocFreeTraced(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := sim.New(1)
	src := netip.MustParseAddr("10.0.0.1")
	dstAddr := netip.MustParseAddr("10.0.0.2")

	rx := NewHost(s, "rx")
	delivered := 0
	rx.SetHandler(func(p *Packet) {
		delivered++
		p.Release()
	})
	tx := NewHost(s, "tx")
	wire := NewLink(s, "wire", rx, LinkConfig{RateBps: 1e9, Delay: time.Millisecond})
	tr := trace.New(1 << 10)
	wire.SetTrace(tr.Shard("net"), tr.Register(trace.EntLink, 0, wire.Name()))
	tx.AddIface("eth0", src, wire)

	send := func() {
		sg := seg.Shared.Get()
		sg.Tuple = seg.FourTuple{SrcIP: src, DstIP: dstAddr, SrcPort: 1000, DstPort: 80}
		sg.Flags = seg.ACK | seg.PSH
		sg.PayloadLen = 1380
		tx.Send(NewPacket(sg))
		s.RunFor(5 * time.Millisecond)
	}
	for i := 0; i < 128; i++ {
		send()
	}
	before := delivered
	avg := testing.AllocsPerRun(2000, send)
	if delivered <= before {
		t.Fatal("packets were not delivered")
	}
	if tr.Shard("net").Len() == 0 {
		t.Fatal("nothing was recorded")
	}
	if avg > 0.05 {
		t.Fatalf("traced link delivery allocates %.2f allocs/op, want ~0", avg)
	}
}

// TestDropsRecyclePackets checks the other half of the ownership contract:
// packets dropped inside the fabric (link down, queue overflow, random
// loss, no route) are retired to the pools rather than leaked, so lossy
// runs stay allocation-free too.
func TestDropsRecyclePackets(t *testing.T) {
	s := sim.New(1)
	src := netip.MustParseAddr("10.0.0.1")
	rx := NewHost(s, "rx")
	rx.SetHandler(func(p *Packet) { p.Release() })
	wire := NewLink(s, "wire", rx, LinkConfig{RateBps: 1e9, Delay: time.Millisecond, Loss: 1.0})

	gets0 := seg.Shared.Stats()
	for i := 0; i < 50; i++ {
		sg := seg.Shared.Get()
		sg.Tuple = seg.FourTuple{SrcIP: src, DstIP: src, SrcPort: 1, DstPort: 2}
		wire.Send(NewPacket(sg))
		s.RunFor(5 * time.Millisecond)
	}
	s.Flush() // the run is over: its loop hands its lists to the stores
	st := seg.Shared.Stats()
	if puts := st.Puts - gets0.Puts; puts < 50 {
		t.Fatalf("only %d of 50 dropped segments were retired to the pool", puts)
	}
	if wire.Stats.LostRand != 50 {
		t.Fatalf("expected 50 random losses, got %d", wire.Stats.LostRand)
	}
}

// TestECMPForwardAllocFree pins the flow-hashed forwarding path (the bench
// probe netem.ecmp_forward_allocs): a Router choosing among four equal-cost
// links hashes every packet's 4-tuple, and neither the hash nor the
// forwarding allocates.
func TestECMPForwardAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := sim.New(1)
	src := netip.MustParseAddr("10.0.0.1")
	dstAddr := netip.MustParseAddr("10.0.0.2")

	rx := NewHost(s, "rx")
	delivered := 0
	rx.SetHandler(func(p *Packet) {
		delivered++
		p.Release()
	})
	r := NewRouter(s, "r", 7)
	var links []*Link
	for i := 0; i < 4; i++ {
		links = append(links, NewLink(s, fmt.Sprintf("p%d", i), rx, LinkConfig{RateBps: 1e9, Delay: time.Millisecond}))
	}
	r.AddRoute(dstAddr, links...)

	port := uint16(1000)
	send := func() {
		sg := seg.Shared.Get()
		port++ // a new flow per packet, so every link carries traffic
		sg.Tuple = seg.FourTuple{SrcIP: src, DstIP: dstAddr, SrcPort: port, DstPort: 80}
		sg.Flags = seg.ACK | seg.PSH
		sg.PayloadLen = 1380
		r.Input(NewPacket(sg))
		s.RunFor(5 * time.Millisecond)
	}
	for i := 0; i < 128; i++ {
		send()
	}
	before := delivered
	avg := testing.AllocsPerRun(2000, send)
	if delivered <= before {
		t.Fatal("packets were not delivered")
	}
	for _, l := range links {
		if l.Stats.Sent == 0 {
			t.Fatalf("link %s carried nothing; the hash is not spreading flows", l.Name())
		}
	}
	if avg > 0.05 {
		t.Fatalf("ECMP forwarding allocates %.2f allocs/op, want ~0", avg)
	}
}

// TestDuplexIsOneObject pins what a duplex link costs to build: one object
// holding both halves, whose names are spelled out only when asked for. On
// a World each half also derives its own clock, and nothing more.
func TestDuplexIsOneObject(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := sim.New(1)
	a, b := NewHost(s, "a"), NewHost(s, "b")
	cfg := LinkConfig{RateBps: 1e6, Delay: time.Millisecond}
	var d *Duplex
	if n := testing.AllocsPerRun(100, func() { d = NewDuplex("wan", a, b, cfg) }); n != 1 {
		t.Errorf("NewDuplex on a Simulator: %v objects, want 1", n)
	}
	for _, c := range []struct {
		l    *Link
		want string
	}{{d.AB, "wan:a->b"}, {d.BA, "wan:b->a"}} {
		if c.l.Name() != c.want || c.l.String() != c.want {
			t.Errorf("half named %q / %q, want %q", c.l.Name(), c.l.String(), c.want)
		}
	}

	w := sim.NewWorld(1, 1)
	wa, wb := NewHost(w.HostClock(0, "a"), "a"), NewHost(w.HostClock(0, "b"), "b")
	if n := testing.AllocsPerRun(100, func() { NewDuplex("wan", wa, wb, cfg) }); n != 3 {
		t.Errorf("NewDuplex on a World: %v objects, want 3 (the duplex and two clocks)", n)
	}
}
