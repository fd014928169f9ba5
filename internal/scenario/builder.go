package scenario

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Builder is the free-form declarative topology: named hosts, routers and
// middleboxes joined by named duplex links with per-link netem.LinkConfig,
// plus static routes. Link directions are resolved automatically from
// which side of a link a node sits on, so specs never spell out AB/BA.
//
// Build order is fixed — nodes, links, interfaces, routes — and every
// inconsistency (unknown node, iface on a link the host does not touch)
// panics: topologies are static data, so any error is a spec bug.
type Builder struct {
	Hosts       []HostSpec
	Routers     []RouterSpec
	Middleboxes []MiddleboxSpec
	Links       []LinkSpec
	Routes      []RouteSpec

	// ClientHosts name the hosts exposed as Net.Clients, in order; their
	// endpoint addresses are the declared interfaces in order. Server
	// names the server host; ServerAddr its address (defaults to the
	// server's first interface address).
	ClientHosts []string
	Server      string
	ServerAddr  netip.Addr
}

// HostSpec declares a host and its interfaces. Each interface attaches to
// the named link; the outbound direction is inferred from the link's
// endpoints. Group is the host's placement group for sharded worlds; a
// spec leaving every node in group 0 cannot be partitioned and is
// rejected when run with more than one shard.
type HostSpec struct {
	Name   string
	Group  int
	Ifaces []IfaceSpec
}

// IfaceSpec is one host interface.
type IfaceSpec struct {
	Name string
	Addr netip.Addr
	Link string
}

// RouterSpec declares a flow-hashing router.
type RouterSpec struct {
	Name  string
	Group int
	// HashSeed seeds the ECMP flow hash; zero derives it from the run
	// seed.
	HashSeed uint64
}

// MiddleboxSpec declares a stateful middlebox with an idle timeout.
type MiddleboxSpec struct {
	Name   string
	Group  int
	Idle   time.Duration
	Expiry netem.ExpiryPolicy
}

// LinkSpec declares a duplex link between two named nodes. The forward
// (AB) direction is A→B, so list the client-side node first to keep the
// loss-event convention.
type LinkSpec struct {
	Name string
	A, B string
	Cfg  netem.LinkConfig
}

// RouteSpec installs a static route at a router or middlebox: traffic to
// Dst leaves Node over the listed links (several links ECMP-balance).
type RouteSpec struct {
	Node  string
	Dst   netip.Addr
	Links []string
}

// Build implements Topology.
func (b Builder) Build(f sim.Fabric, seed int64) *Net {
	n := &Net{Links: make(map[string]*netem.Duplex)}

	type node struct {
		n    netem.Node
		host *netem.Host
		add  func(dst netip.Addr, links ...*netem.Link)
	}
	nodes := make(map[string]node)
	declare := func(name string, nd node) {
		if name == "" {
			panic("scenario: Builder node with empty name")
		}
		if _, dup := nodes[name]; dup {
			panic(fmt.Sprintf("scenario: Builder node %q declared twice", name))
		}
		nodes[name] = nd
	}
	for _, h := range b.Hosts {
		host := netem.NewHost(f.HostClock(h.Group, h.Name), h.Name)
		declare(h.Name, node{n: host, host: host})
	}
	for _, r := range b.Routers {
		hs := r.HashSeed
		if hs == 0 {
			hs = uint64(seed)
		}
		rt := netem.NewRouter(f.HostClock(r.Group, r.Name), r.Name, hs)
		declare(r.Name, node{n: rt, add: rt.AddRoute})
	}
	for _, m := range b.Middleboxes {
		mb := netem.NewMiddlebox(f.HostClock(m.Group, m.Name), m.Name, m.Idle, m.Expiry)
		// A middlebox routes each destination over exactly one link.
		add := func(dst netip.Addr, links ...*netem.Link) {
			if len(links) != 1 {
				panic(fmt.Sprintf("scenario: Builder middlebox route to %s needs exactly one link, got %d", dst, len(links)))
			}
			mb.AddRoute(dst, links[0])
		}
		declare(m.Name, node{n: mb, add: add})
		if n.NAT == nil {
			n.NAT = mb
		}
	}

	get := func(name, what string) node {
		nd, ok := nodes[name]
		if !ok {
			panic(fmt.Sprintf("scenario: Builder %s references unknown node %q", what, name))
		}
		return nd
	}
	type ends struct{ a, b string }
	sides := make(map[string]ends)
	for _, l := range b.Links {
		if _, dup := n.Links[l.Name]; dup {
			panic(fmt.Sprintf("scenario: Builder link %q declared twice", l.Name))
		}
		d := netem.NewDuplex(l.Name, get(l.A, "link").n, get(l.B, "link").n, l.Cfg)
		n.Links[l.Name] = d
		sides[l.Name] = ends{a: l.A, b: l.B}
	}
	// outbound returns the directed half of a named link leaving `from`.
	outbound := func(from, link string) *netem.Link {
		d, ok := n.Links[link]
		if !ok {
			panic(fmt.Sprintf("scenario: Builder references unknown link %q", link))
		}
		switch from {
		case sides[link].a:
			return d.AB
		case sides[link].b:
			return d.BA
		}
		panic(fmt.Sprintf("scenario: node %q is not an endpoint of link %q", from, link))
	}

	for _, h := range b.Hosts {
		host := nodes[h.Name].host
		for _, i := range h.Ifaces {
			host.AddIface(i.Name, i.Addr, outbound(h.Name, i.Link))
		}
	}
	for _, r := range b.Routes {
		nd := get(r.Node, "route")
		if nd.add == nil {
			panic(fmt.Sprintf("scenario: Builder route at %q, which is a host (hosts route by interface)", r.Node))
		}
		var links []*netem.Link
		for _, l := range r.Links {
			links = append(links, outbound(r.Node, l))
		}
		nd.add(r.Dst, links...)
	}

	srv := get(b.Server, "server")
	if srv.host == nil {
		panic(fmt.Sprintf("scenario: Builder server %q is not a host", b.Server))
	}
	n.Server = srv.host
	n.ServerAddr = b.ServerAddr
	if n.ServerAddr == (netip.Addr{}) {
		if addrs := srv.host.Addrs(); len(addrs) > 0 {
			n.ServerAddr = addrs[0]
		}
	}
	for _, name := range b.ClientHosts {
		cl := get(name, "client")
		if cl.host == nil {
			panic(fmt.Sprintf("scenario: Builder client %q is not a host", name))
		}
		n.Clients = append(n.Clients, Endpoint{Host: cl.host, Addrs: cl.host.Addrs()})
	}
	return n
}
