// Package netem emulates the network substrate the paper's Mininet
// experiments run on: rate/delay/loss links with drop-tail queues, ECMP
// routers hashing the TCP 4-tuple, multi-homed hosts whose interfaces can go
// up and down at runtime, and a stateful middlebox with idle timeouts (the
// NAT/firewall of §4.1). Everything runs on a sim.Simulator virtual clock,
// so topologies are deterministic and seedable.
package netem

import (
	"net/netip"

	"repro/internal/freelist"
	"repro/internal/seg"
	"repro/internal/sim"
)

// ipOverhead approximates per-packet IP+link framing bytes added on top of
// the TCP wire image when computing serialisation times.
const ipOverhead = 40

// Packet is one IP datagram carrying a TCP segment. The sending stack
// transfers ownership of both the shell and the segment into the network
// with Send; whichever node drops or consumes the packet Releases it (see
// DESIGN.md "Segment ownership"), so the steady-state forwarding path
// performs no heap allocation.
type Packet struct {
	Src, Dst netip.Addr
	Seg      *seg.Segment
	Size     int // total wire bytes incl. IP overhead

	// While in flight on a Link: the link, the delivery key it reserved,
	// and the packet sent after this one.
	link *Link
	due  sim.Time
	seq  uint64
	next *Packet
}

// packetPool recycles packet shells across all simulations.
var packetPool = freelist.List[*Packet]{
	New: func() *Packet { return new(Packet) },
	Max: 1 << 14,
}

// PacketPoolStats snapshots the packet-shell pool counters.
func PacketPoolStats() freelist.Stats {
	return packetPool.Stats()
}

// NewPacket wraps a segment, computing the wire size. The shell comes
// from a pool; ownership of s transfers to the packet.
func NewPacket(s *seg.Segment) *Packet {
	p := packetPool.Get()
	p.Src = s.Tuple.SrcIP
	p.Dst = s.Tuple.DstIP
	p.Seg = s
	p.Size = s.WireSize() + ipOverhead
	return p
}

// Release retires the packet shell — and its segment, if still attached —
// to their pools. A consumer that keeps the segment (the receiving
// endpoint) detaches it by nilling p.Seg first. p must not be used after
// Release.
func (p *Packet) Release() {
	if p == nil {
		return
	}
	if p.Seg != nil {
		seg.Shared.Put(p.Seg)
		p.Seg = nil
	}
	p.Src, p.Dst = netip.Addr{}, netip.Addr{}
	p.Size = 0
	packetPool.Put(p)
}

// Node is anything that can receive packets: hosts, routers, middleboxes.
type Node interface {
	// Input delivers a packet to the node at the current virtual time.
	Input(pkt *Packet)
	// Name identifies the node in traces.
	Name() string
	// Clock is the node's scheduling clock; under a sharded world it pins
	// the node (and everything it owns) to one shard's event loop.
	Clock() sim.Clock
}

// FlowHash hashes a 4-tuple for ECMP path selection. The tuple is
// canonicalised (both directions of a flow hash identically) so forward and
// return traffic of a subflow take the same emulated path, matching the
// symmetric-path Mininet topologies in the paper. The seed lets different
// routers (or different experiment trials) use independent hash functions.
//
// The hash is 64-bit FNV-1a over the seed (little-endian), then each
// endpoint's address bytes and big-endian port — the byte stream hash/fnv
// would see, computed inline so the per-packet call allocates nothing.
func FlowHash(ft seg.FourTuple, seed uint64) uint64 {
	k := canonicalKey(ft)
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(seed>>(8*i)))
	}
	return hashAddrPort(hashAddrPort(h, k.a), k.b)
}

type addrPort struct {
	ip   netip.Addr
	port uint16
}

func (x addrPort) less(y addrPort) bool {
	if c := x.ip.Compare(y.ip); c != 0 {
		return c < 0
	}
	return x.port < y.port
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte is one FNV-1a step.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// hashAddrPort folds the address bytes (4 for IPv4, 16 for IPv6 including
// 4-in-6, none for the zero Addr — what AsSlice yields) and the port into
// the running FNV-1a state.
func hashAddrPort(h uint64, ap addrPort) uint64 {
	switch {
	case ap.ip.Is4():
		for _, b := range ap.ip.As4() {
			h = fnvByte(h, b)
		}
	case ap.ip.Is6():
		for _, b := range ap.ip.As16() {
			h = fnvByte(h, b)
		}
	}
	return fnvByte(fnvByte(h, byte(ap.port>>8)), byte(ap.port))
}
