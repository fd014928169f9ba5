package netem

import (
	"net/netip"

	"repro/internal/sim"
)

// RouterStats counts router activity.
type RouterStats struct {
	Forwarded uint64
	NoRoute   uint64
}

// Router forwards packets by destination address. A destination may map to
// several parallel links — an ECMP group — in which case the router picks
// one by hashing the canonicalised TCP 4-tuple, exactly like the flow-level
// load balancers of §4.4: subflows with different source ports land on
// different (but per-flow stable) paths.
type Router struct {
	clock    sim.Clock
	name     string
	routes   map[netip.Addr][]*Link
	hashSeed uint64

	Stats RouterStats
}

// NewRouter creates an empty router. hashSeed perturbs the ECMP hash so
// distinct trials explore different subflow→path assignments, as different
// random source ports would on real hardware.
func NewRouter(c sim.Clock, name string, hashSeed uint64) *Router {
	return &Router{clock: c, name: name, routes: make(map[netip.Addr][]*Link), hashSeed: hashSeed}
}

// Name implements Node.
func (r *Router) Name() string { return r.name }

// Clock implements Node.
func (r *Router) Clock() sim.Clock { return r.clock }

// AddRoute appends links to the ECMP group for dst.
func (r *Router) AddRoute(dst netip.Addr, links ...*Link) {
	r.routes[dst] = append(r.routes[dst], links...)
}

// PathFor reports which ECMP index a tuple hashes to for dst (for tests and
// experiment ground truth). It returns -1 when no route exists.
func (r *Router) PathFor(dst netip.Addr, pkt *Packet) int {
	links := r.routes[dst]
	switch {
	case len(links) == 0:
		return -1
	case len(links) == 1:
		return 0
	default:
		return int(FlowHash(pkt.Seg.Tuple, r.hashSeed) % uint64(len(links)))
	}
}

// Input implements Node: forward the packet (ownership passes to the
// egress link; unroutable packets are retired).
func (r *Router) Input(pkt *Packet) {
	links := r.routes[pkt.Dst]
	if len(links) == 0 {
		r.Stats.NoRoute++
		Packets(r.clock).Release(pkt)
		return
	}
	idx := 0
	if len(links) > 1 {
		idx = int(FlowHash(pkt.Seg.Tuple, r.hashSeed) % uint64(len(links)))
	}
	r.Stats.Forwarded++
	links[idx].Send(pkt)
}
