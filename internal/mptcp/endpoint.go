package mptcp

import (
	"fmt"
	"net/netip"

	"repro/internal/netem"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/small"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Config tunes an endpoint's Multipath TCP stack.
type Config struct {
	// TCP configures every subflow (MSS, initial window, RTO limits, ...).
	TCP tcp.Config
	// Scheduler names a packet scheduler in the Schedulers table; empty
	// means the kernel default, lowest-rtt.
	Scheduler string
	// Trace, when non-nil, records every connection's protocol events
	// (scheduler picks, reinjections, DSS reassembly, subflow churn,
	// per-subflow send/recv/RTT/cwnd) into this shard — by convention
	// the owning host's shard of a per-run trace.Tracer.
	Trace *trace.Shard
}

// Endpoint is the per-host Multipath TCP stack: it owns connections,
// demultiplexes inbound segments to subflows (including MP_JOIN token
// lookup), allocates ephemeral ports, and drives the attached PathManager.
type Endpoint struct {
	sim  sim.Clock
	host *netem.Host
	pm   PathManager
	// tcp is what every subflow shares: Config.TCP with its defaults
	// applied, ep.output bound once, and the per-ACK scratch.
	tcp   tcp.Shared
	trace *trace.Shard // Config.Trace
	// The free lists of the host's event loop: where inbound packets and
	// segments are retired, outbound packets and RSTs made.
	pkts netem.PacketList
	segs seg.List
	// newSched is Config.Scheduler resolved once; every connection gets
	// its own.
	newSched SchedulerFactory

	// The demux tables. A client holds a handful of entries in each, in
	// the tables' rooms; a server's spill into maps.
	listeners map[uint16]func(*Connection) // nil until the first Listen
	tuples    small.Table[tupleKey, *tcp.Subflow]
	tokens    small.Table[uint32, *Connection] // the live connections, by token
	addrIDs   small.Table[netip.Addr, uint8]
	usedPorts small.Table[uint16, struct{}] // every port allocPort handed out

	// Stats counters.
	RSTSent     uint64
	JoinNoToken uint64
	// totals holds what closed subflows and connections counted, and the
	// two facts only the endpoint keeps (picks, reassembly high-water).
	totals Totals
}

// tupleKey is a 4-tuple as the demux table keys it: both addresses in their
// 16-byte form, the ports, and which addresses are IPv4 (As16 maps those
// into IPv6). It is 38 bytes with no pointer where a seg.FourTuple is 56
// with two (netip.Addr's zone), so the table's buckets are smaller and the
// garbage collector never scans them. Zones are dropped: no simulated host
// has two interfaces that differ only by zone.
type tupleKey struct {
	src, dst     [16]byte
	sport, dport uint16
	v4           uint8 // bit 0: src is IPv4; bit 1: dst is
}

func keyOf(t seg.FourTuple) tupleKey {
	k := tupleKey{src: t.SrcIP.As16(), dst: t.DstIP.As16(), sport: t.SrcPort, dport: t.DstPort}
	if t.SrcIP.Is4() {
		k.v4 |= 1
	}
	if t.DstIP.Is4() {
		k.v4 |= 2
	}
	return k
}

// Totals is what an endpoint's subflows and connections counted over its
// life, closed ones included: the figures a metered run exports as its
// tcp_* and mptcp_* metrics.
type Totals struct {
	Retrans, FastRetrans, Timeouts uint64 // summed tcp.Stats
	Reinjected, Duplicated         uint64 // summed ConnStats bytes
	// Picks counts scheduler picks by the picked subflow's position among
	// its connection's live subflows; the last entry absorbs the rest.
	Picks [8]uint64
	// ReassemblyOOHW is the largest out-of-order reassembly backlog any
	// connection held, in bytes.
	ReassemblyOOHW uint64
}

func (t *Totals) addSubflow(s tcp.Stats) {
	t.Retrans += s.Retrans
	t.FastRetrans += s.FastRetrans
	t.Timeouts += s.Timeouts
}

func (t *Totals) addConn(s ConnStats) {
	t.Reinjected += s.BytesReinjected
	t.Duplicated += s.BytesDuplicated
}

// Totals reports the endpoint's totals with its live connections and
// subflows added in.
func (ep *Endpoint) Totals() Totals {
	t := ep.totals
	for _, c := range ep.tokens.All {
		t.addConn(c.stats)
		for _, sf := range c.subflows {
			t.addSubflow(sf.Info().Stats)
		}
	}
	return t
}

// NewEndpoint attaches a Multipath TCP stack to a host. pm may be nil, in
// which case the do-nothing path manager is used.
func NewEndpoint(host *netem.Host, cfg Config, pm PathManager) *Endpoint {
	if pm == nil {
		pm = NopPM{}
	}
	newSched, err := LookupScheduler(cfg.Scheduler)
	if err != nil {
		panic(err) // misconfiguration; cmd/mpexp validates names up front
	}
	ep := &Endpoint{
		sim:      host.Clock(),
		host:     host,
		pm:       pm,
		pkts:     netem.Packets(host.Clock()),
		segs:     seg.Shared.On(sim.Lists(host.Clock())),
		trace:    cfg.Trace,
		newSched: newSched,
	}
	ep.tcp.Init(cfg.TCP, ep.output)
	host.SetHandler(ep.input)
	host.WatchAddrs(func(addr netip.Addr, up bool) {
		if up {
			ep.pm.LocalAddrUp(addr)
		} else {
			ep.pm.LocalAddrDown(addr)
		}
	})
	return ep
}

// Clock exposes the host clock driving this endpoint.
func (ep *Endpoint) Clock() sim.Clock { return ep.sim }

// Host exposes the underlying netem host.
func (ep *Endpoint) Host() *netem.Host { return ep.host }

// Conns lists the endpoint's live connections (order unspecified).
func (ep *Endpoint) Conns() []*Connection {
	out := make([]*Connection, 0, ep.tokens.Len())
	for _, c := range ep.tokens.All {
		out = append(out, c)
	}
	return out
}

// Conn returns the live connection whose local token is token, or nil.
func (ep *Endpoint) Conn(token uint32) *Connection {
	c, _ := ep.tokens.Get(token)
	return c
}

// Listen accepts MP_CAPABLE connections on a local port; accept runs when a
// connection's handshake completes.
func (ep *Endpoint) Listen(port uint16, accept func(*Connection)) {
	if ep.listeners == nil {
		ep.listeners = make(map[uint16]func(*Connection))
	}
	ep.listeners[port] = accept
}

// Connect opens a Multipath TCP connection: the initial subflow goes from
// laddr (which must be a local interface address) to raddr:rport. cb may be
// the zero value.
func (ep *Endpoint) Connect(laddr, raddr netip.Addr, rport uint16, cb ConnCallbacks) (*Connection, error) {
	iface := ep.host.Iface(laddr)
	if iface == nil || !iface.Up() {
		return nil, tcp.ENETUNREACH
	}
	tuple := seg.FourTuple{SrcIP: laddr, DstIP: raddr, SrcPort: ep.allocPort(), DstPort: rport}
	c := ep.newConn(true, tuple, cb)
	sf := c.newSubflow(tuple, sfMeta{isInitial: true, localAddrID: ep.addrID(laddr)})
	ep.pm.ConnCreated(c)
	sf.Connect()
	return c, nil
}

// newConn builds a Connection with a fresh, collision-free key.
func (ep *Endpoint) newConn(isClient bool, initial seg.FourTuple, cb ConnCallbacks) *Connection {
	var key uint64
	var token uint32
	for {
		key = seg.NewKey(ep.sim.Rand())
		token = seg.Token(key)
		if _, dup := ep.tokens.Get(token); !dup && key != 0 {
			break
		}
	}
	c := &Connection{
		ep:           ep,
		isClient:     isClient,
		sched:        ep.newSched(ep.sim.Rand()),
		cb:           cb,
		localKey:     key,
		token:        token,
		localIDSN:    seg.IDSN(key),
		initialTuple: initial,
	}
	c.subflows, c.meta = c.sfRoom[:0], c.metaRoom[:0]
	if sh := ep.trace; sh != nil {
		c.tsh = sh
		c.tid = sh.Tracer().Register(trace.EntConn, 0,
			fmt.Sprintf("%s/conn-%08x", ep.host.Name(), token))
	}
	ep.tokens.Put(token, c)
	return c
}

// removeConn forgets a fully closed connection.
func (ep *Endpoint) removeConn(c *Connection) {
	ep.tokens.Delete(c.token)
}

// input demultiplexes an inbound packet. The endpoint owns the packet: it
// retires the shell immediately and the segment once handling finishes,
// closing the pooled segment lifecycle (sender Get → wire → receiver Put).
func (ep *Endpoint) input(pkt *netem.Packet) {
	sg := pkt.Seg
	pkt.Seg = nil
	ep.pkts.Release(pkt)
	ep.handleSegment(sg)
	ep.segs.Put(sg)
}

// handleSegment routes one inbound segment, which is owned by the caller
// and must not be retained by anything downstream.
func (ep *Endpoint) handleSegment(sg *seg.Segment) {
	key := sg.Tuple.Reverse() // local-perspective tuple
	if sf, ok := ep.tuples.Get(keyOf(key)); ok {
		sf.HandleSegment(sg)
		return
	}
	if sg.Is(seg.SYN) && !sg.Is(seg.ACK) {
		if j := sg.MPJoin(); j != nil {
			// Joins are acceptable as soon as both keys are known (the
			// Linux server registers the token at SYN_RCVD time), so a
			// join racing ahead of the initial third ACK still succeeds.
			c, ok := ep.tokens.Get(j.Token)
			if !ok || c.remoteKey == 0 {
				ep.JoinNoToken++
				ep.sendRST(sg)
				return
			}
			c.acceptJoin(key, sg)
			return
		}
		if sg.MPCapable() != nil {
			if accept, ok := ep.listeners[sg.Tuple.DstPort]; ok {
				c := ep.newConn(false, key, ConnCallbacks{})
				c.onAccept = accept
				sf := c.newSubflow(key, sfMeta{isInitial: true, localAddrID: ep.addrID(key.SrcIP)})
				ep.pm.ConnCreated(c)
				sf.HandleSegment(sg)
				return
			}
		}
		ep.sendRST(sg)
		return
	}
	if !sg.Is(seg.RST) {
		ep.sendRST(sg)
	}
}

// sendRST answers a segment that matches no socket, like a kernel would.
func (ep *Endpoint) sendRST(cause *seg.Segment) {
	ep.RSTSent++
	rst := ep.segs.Get()
	rst.Tuple = cause.Tuple.Reverse()
	rst.Seq = cause.Ack
	rst.Ack = cause.SeqEnd()
	rst.Flags = seg.RST | seg.ACK
	ep.host.Send(ep.pkts.New(rst))
}

// output transmits a subflow's segment through the host's routing. The
// subflow has already relinquished ownership (tcp.Output contract), so no
// defensive clone is needed: the segment travels by pointer end to end
// and the receiving endpoint retires it.
func (ep *Endpoint) output(s *seg.Segment) {
	ep.host.Send(ep.pkts.New(s))
}

// addrID returns the stable local address ID used in MPTCP options.
func (ep *Endpoint) addrID(addr netip.Addr) uint8 {
	if id, ok := ep.addrIDs.Get(addr); ok {
		return id
	}
	id := uint8(ep.addrIDs.Len() + 1)
	if id == 0 {
		panic("mptcp: address ID space exhausted")
	}
	ep.addrIDs.Put(addr, id)
	return id
}

// allocPort draws a random ephemeral port that no subflow has used and no
// listener holds, as a kernel does. Randomness matters: §4.4 relies on
// random source ports hashing subflows onto different ECMP paths. When the
// draws keep hitting taken ports, a scan finds the last free ones.
func (ep *Endpoint) allocPort() uint16 {
	const first, count = 32768, 28232
	take := func(p uint16) bool {
		_, listening := ep.listeners[p]
		if _, used := ep.usedPorts.Get(p); listening || used {
			return false
		}
		ep.usedPorts.Put(p, struct{}{})
		return true
	}
	for tries := 0; tries < 10000; tries++ {
		if p := uint16(first + ep.sim.Rand().Intn(count)); take(p) {
			return p
		}
	}
	for p := uint16(first); p < first+count; p++ {
		if take(p) {
			return p
		}
	}
	panic("mptcp: ephemeral ports exhausted")
}

// String describes the endpoint.
func (ep *Endpoint) String() string {
	return fmt.Sprintf("mptcp endpoint on %s (%d conns)", ep.host.Name(), ep.tokens.Len())
}
