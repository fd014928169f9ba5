package netem

import (
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// LinkStats counts traffic through one unidirectional link. The fields
// are split by which end of the link owns them: Sent/Bytes/DropCut are
// written at delivery time (the destination's shard under a sharded
// world), everything else at enqueue time (the source's shard), so the
// two sides never write the same word concurrently.
type LinkStats struct {
	Sent      uint64 // packets delivered to the far end
	Bytes     uint64 // bytes delivered
	LostRand  uint64 // packets dropped by the random-loss model
	DropQueue uint64 // packets dropped because the queue was full
	DropDown  uint64 // packets dropped at enqueue because the link was down
	DropCut   uint64 // packets cut in flight by the link going down
}

// Link is a unidirectional link with a serialisation rate, propagation
// delay, Bernoulli random loss, and a drop-tail queue bounded in packets.
// A duplex link is simply a pair. Loss and up/down state can change while
// the simulation runs (the experiments in §4.2/§4.3 raise the loss ratio
// mid-transfer).
//
// A packet costs one event, its delivery; the end of its serialisation is a
// reserved key, not an event (DESIGN.md "Events per hop").
type Link struct {
	clock sim.Clock // the source side's loop: owns the transmitter state
	// name is the link's own name, or its duplex's when src is set: a
	// duplex half spells out "name:src->dst" only when asked (Name).
	name  string
	src   Node
	dst   Node
	rate  float64 // bits per second; 0 means infinite
	delay time.Duration
	loss  float64 // probability in [0,1]
	qcap  int     // max queued packets awaiting serialisation
	up    bool    // reconfigured only at barriers (globals) or while paused

	busyUntil sim.Time // when the transmitter frees up
	// Reserved serialisation ends, oldest first from serHead on; the ones
	// not passed yet are the packets still queued. At most qcap are live.
	ser     []serEnd
	serHead int

	// Packets in flight, in Send order and so in key order; the relay's one
	// event carries the head's key. Both belong to the destination's loop.
	head, tail *Packet
	relay      sim.Relay

	// Trace recording (nil shard = off): enqueue/drop/deliver events
	// for the per-link utilisation and drop analysis.
	tsh *trace.Shard
	tid uint32

	Stats LinkStats
}

// serEnd is the reserved key of one packet's end of serialisation.
type serEnd struct {
	at  sim.Time
	seq uint64
}

// LinkConfig bundles the constructor parameters for a Link.
type LinkConfig struct {
	RateBps  float64       // serialisation rate in bits/s (0 = infinite)
	Delay    time.Duration // one-way propagation delay
	Loss     float64       // Bernoulli loss probability
	QueueCap int           // drop-tail queue capacity in packets (0 = default 100)
}

// DefaultQueueCap is the drop-tail queue depth used when LinkConfig leaves
// QueueCap zero. 100 packets matches Mininet's default TXQueueLen.
const DefaultQueueCap = 100

// NewLink creates a link delivering to dst. c is the clock of the node
// the link transmits from: the link derives its own clock (and random
// stream) on the same event loop. When source and destination live on
// different shards of a sim.World, the link registers itself as a
// cross-shard crossing whose propagation delay bounds the world's
// conservative lookahead.
func NewLink(c sim.Clock, name string, dst Node, cfg LinkConfig) *Link {
	l := new(Link)
	l.init(c, name, nil, dst, cfg)
	return l
}

// init sets up l in place: NewLink's link, or one half of a Duplex (src
// set, name the duplex's).
func (l *Link) init(c sim.Clock, name string, src, dst Node, cfg LinkConfig) {
	qcap := cfg.QueueCap
	if qcap == 0 {
		qcap = DefaultQueueCap
	}
	*l = Link{
		clock: c.Derive(name),
		name:  name,
		src:   src,
		dst:   dst,
		rate:  cfg.RateBps,
		delay: cfg.Delay,
		loss:  cfg.Loss,
		qcap:  qcap,
		up:    true,
	}
	// Only a link between two shards is a crossing, and only a crossing
	// can need its name (in a build error), so only it spells one out.
	if w := sim.WorldOf(l.clock); w != nil && sim.ShardIndex(l.clock) != sim.ShardIndex(dst.Clock()) {
		w.Crossing(l.Name(), l.clock, dst.Clock(), cfg.Delay)
	}
	l.relay.Init(l.clock, dst.Clock(), "link.deliver", deliverHead, l)
}

// String names the link where the relay's event has to describe itself.
func (l *Link) String() string { return l.Name() }

// SetTrace binds the link to a trace shard under the given entity id
// (nil shard = tracing off).
func (l *Link) SetTrace(sh *trace.Shard, id uint32) {
	l.tsh = sh
	l.tid = id
}

// trace records one link event; a nil-guarded store, no allocation.
// Tracing is only enabled on single-shard runs, where both link clocks
// read the same loop time.
func (l *Link) trace(k trace.Kind, size int, flag uint8) {
	if l.tsh == nil {
		return
	}
	l.tsh.Rec(l.clock.Now(), k, l.tid, 0, uint32(size), 0, flag)
}

// Name identifies the link in traces: a duplex half is "name:a->b", named
// after its duplex and its two ends.
func (l *Link) Name() string {
	if l.src == nil {
		return l.name
	}
	return l.name + ":" + l.src.Name() + "->" + l.dst.Name()
}

// Delay reports the configured propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// SetLoss changes the random loss probability, effective immediately.
func (l *Link) SetLoss(p float64) { l.loss = p }

// Loss reports the current loss probability.
func (l *Link) Loss() float64 { return l.loss }

// SetUp raises or cuts the link. While down every packet is dropped.
func (l *Link) SetUp(up bool) { l.up = up }

// Up reports whether the link is passing traffic.
func (l *Link) Up() bool { return l.up }

// Send enqueues a packet for transmission, taking ownership of it. Drops
// (queue overflow, random loss, link down) are silent, as on a real wire;
// counters record them and the packet is retired to the pool.
func (l *Link) Send(pkt *Packet) {
	if !l.up {
		l.Stats.DropDown++
		l.trace(trace.KLinkDrop, pkt.Size, trace.DropDown)
		pkt.Release()
		return
	}
	// Retire the serialisations that have ended; once more are dead than
	// live close the gap, so the slice stops growing at the deepest queue.
	i := l.serHead
	for i < len(l.ser) && l.clock.Passed(l.ser[i].at, l.ser[i].seq) {
		i++
	}
	if i > len(l.ser)-i {
		l.ser = l.ser[:copy(l.ser, l.ser[i:])]
		i = 0
	}
	l.serHead = i
	if len(l.ser)-i >= l.qcap {
		l.Stats.DropQueue++
		l.trace(trace.KLinkDrop, pkt.Size, trace.DropQueue)
		pkt.Release()
		return
	}
	l.trace(trace.KLinkEnq, pkt.Size, 0)
	// The loss draw happens at enqueue time; one draw per packet.
	lost := l.loss > 0 && l.clock.Rand().Float64() < l.loss

	now := l.clock.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	var ser time.Duration
	if l.rate > 0 {
		ser = time.Duration(float64(pkt.Size*8) / l.rate * float64(time.Second))
	}
	l.busyUntil = start.Add(ser)
	l.ser = append(l.ser, serEnd{l.busyUntil, l.clock.Reserve()})
	if lost {
		l.Stats.LostRand++
		l.trace(trace.KLinkDrop, pkt.Size, trace.DropLoss)
		pkt.Release()
		return
	}
	// The rest runs on the destination's loop; the relay carries the packet
	// through the cross-shard mailbox when that loop is another shard.
	pkt.link, pkt.due, pkt.seq = l, l.busyUntil.Add(l.delay), l.clock.Reserve()
	l.relay.Hand(pkt.due, arrive, pkt)
}

// arrive appends a packet to its link's in-flight FIFO. Keys grow along the
// FIFO — busyUntil never decreases, the delay is fixed, sequence numbers
// increase — so only the head's needs to be in the event queue.
func arrive(a any) {
	pkt := a.(*Packet)
	l := pkt.link
	if l.tail == nil {
		l.head = pkt
		l.relay.Arm(pkt.due, pkt.seq)
	} else {
		l.tail.next = pkt
	}
	l.tail = pkt
}

// deliverHead fires under the head packet's key: it moves the relay on to
// the next packet's, then delivers. It may only touch delivery-owned state
// (the FIFO, Sent/Bytes/DropCut, the packet, dst).
func deliverHead(a any) {
	l := a.(*Link)
	pkt := l.head
	if l.head = pkt.next; l.head != nil {
		l.relay.Arm(l.head.due, l.head.seq)
	} else {
		l.tail = nil
	}
	pkt.link, pkt.next = nil, nil
	if !l.up { // cut while in flight
		l.Stats.DropCut++
		l.trace(trace.KLinkDrop, pkt.Size, trace.DropDown)
		pkt.Release()
		return
	}
	l.Stats.Sent++
	l.Stats.Bytes += uint64(pkt.Size)
	l.trace(trace.KLinkDlv, pkt.Size, 0)
	l.dst.Input(pkt)
}

// Duplex is a bidirectional link: two independent unidirectional halves
// with (usually) identical configuration. The halves live inside the
// Duplex, so a duplex link is one allocation; AB and BA point at them.
type Duplex struct {
	AB *Link // a → b
	BA *Link // b → a

	ab, ba Link
}

// NewDuplex wires two nodes together with symmetric characteristics. Each
// half schedules on its transmitting node's clock, so the pair straddles a
// shard boundary cleanly when a and b live on different shards.
func NewDuplex(name string, a, b Node, cfg LinkConfig) *Duplex {
	d := new(Duplex)
	d.ab.init(a.Clock(), name, a, b, cfg)
	d.ba.init(b.Clock(), name, b, a, cfg)
	d.AB, d.BA = &d.ab, &d.ba
	return d
}

// SetLoss sets the loss probability on both directions.
func (d *Duplex) SetLoss(p float64) {
	d.AB.SetLoss(p)
	d.BA.SetLoss(p)
}

// SetUp raises or cuts both directions.
func (d *Duplex) SetUp(up bool) {
	d.AB.SetUp(up)
	d.BA.SetUp(up)
}
