package netem

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/sim"
)

// Iface is one host network interface: an address bound to an outgoing
// link. Interfaces can be brought up and down at runtime, which is how the
// experiments emulate WiFi/cellular attachment changes.
type Iface struct {
	IfName string
	Addr   netip.Addr
	link   *Link
	up     bool
}

// Up reports whether the interface is administratively up.
func (i *Iface) Up() bool { return i.up }

// Link exposes the interface's outgoing link (for tests and experiments
// that change loss rates mid-run).
func (i *Iface) Link() *Link { return i.link }

// HostStats counts host-level traffic.
type HostStats struct {
	Delivered uint64 // packets handed to the protocol handler
	SentPkts  uint64
	NoRoute   uint64 // sends with no matching up interface
}

// Host is a (possibly multi-homed) end host. A protocol stack attaches via
// SetHandler; address up/down transitions are observable via WatchAddrs,
// which is the substrate for the paper's new_local_addr / del_local_addr
// events.
type Host struct {
	clock     sim.Clock
	name      string
	ifaces    []*Iface
	handler   func(*Packet)
	procDelay func() time.Duration
	watchers  []func(addr netip.Addr, up bool)

	procFn func(any) // preallocated event callback carrying the packet

	Stats HostStats
}

// NewHost creates a host with no interfaces, scheduling on c (a bare
// *sim.Simulator or a per-shard clock issued by a sim.Fabric).
func NewHost(c sim.Clock, name string) *Host {
	h := &Host{clock: c, name: name}
	h.procFn = func(a any) {
		pkt := a.(*Packet)
		h.Stats.Delivered++
		h.handler(pkt)
	}
	return h
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Clock implements Node: the host's scheduling clock. Protocol stacks
// attached to the host must schedule through it so their work stays on the
// host's shard.
func (h *Host) Clock() sim.Clock { return h.clock }

// SetHandler installs the protocol stack receiving inbound packets.
func (h *Host) SetHandler(fn func(*Packet)) { h.handler = fn }

// SetProcDelay installs a per-packet processing-delay model (for example
// lognormal µs-scale jitter in the Fig. 3 experiment). nil disables it.
func (h *Host) SetProcDelay(fn func() time.Duration) { h.procDelay = fn }

// AddIface attaches an address whose egress is the given link and brings it
// up. It returns the interface for later state changes.
func (h *Host) AddIface(ifName string, addr netip.Addr, link *Link) *Iface {
	i := &Iface{IfName: ifName, Addr: addr, link: link, up: true}
	h.ifaces = append(h.ifaces, i)
	return i
}

// Iface looks an interface up by address.
func (h *Host) Iface(addr netip.Addr) *Iface {
	for _, i := range h.ifaces {
		if i.Addr == addr {
			return i
		}
	}
	return nil
}

// Addrs lists the addresses of all up interfaces, in attachment order.
func (h *Host) Addrs() []netip.Addr {
	var out []netip.Addr
	for _, i := range h.ifaces {
		if i.up {
			out = append(out, i.Addr)
		}
	}
	return out
}

// SetIfaceUp changes an interface's state and notifies watchers on
// transitions. Unknown addresses panic: it is always a topology bug.
func (h *Host) SetIfaceUp(addr netip.Addr, up bool) {
	i := h.Iface(addr)
	if i == nil {
		panic(fmt.Sprintf("netem: host %s has no interface %s", h.name, addr))
	}
	if i.up == up {
		return
	}
	i.up = up
	for _, w := range h.watchers {
		w(addr, up)
	}
}

// WatchAddrs registers a callback invoked on every interface up/down
// transition.
func (h *Host) WatchAddrs(fn func(addr netip.Addr, up bool)) {
	h.watchers = append(h.watchers, fn)
}

// Send routes a packet out the interface owning pkt.Src, taking ownership
// of it. Packets with no up interface for their source address are counted
// and dropped, like a kernel with no route.
func (h *Host) Send(pkt *Packet) {
	i := h.Iface(pkt.Src)
	if i == nil || !i.up || i.link == nil {
		h.Stats.NoRoute++
		Packets(h.clock).Release(pkt)
		return
	}
	h.Stats.SentPkts++
	i.link.Send(pkt)
}

// Input implements Node: deliver to the protocol handler, after the
// processing-delay model if one is installed. Ownership of the packet
// passes to the handler (which retires it once handled); a host without a
// handler drops and retires it.
func (h *Host) Input(pkt *Packet) {
	if h.handler == nil {
		Packets(h.clock).Release(pkt)
		return
	}
	if h.procDelay != nil {
		d := h.procDelay()
		if d > 0 {
			// Only the scheduling-in-the-past panic reads the name, and a
			// positive delay cannot raise it.
			h.clock.AfterArg(d, "host.proc", h.procFn, pkt)
			return
		}
	}
	h.Stats.Delivered++
	h.handler(pkt)
}
