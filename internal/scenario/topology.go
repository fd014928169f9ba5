package scenario

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Topology builds the emulated network for one scenario run. The fabric
// hands out per-entity clocks — a bare *sim.Simulator keeps everything on
// one event loop, a sharded *sim.World spreads host groups across worker
// loops — and the seed is the run's simulation seed, for topologies whose
// shape depends on it (the ECMP hash, the scale aggregation router).
type Topology interface {
	Build(f sim.Fabric, seed int64) *Net
}

// Endpoint is one client host of a built topology with its interface
// addresses in attachment order. The address list is captured at build
// time, so Addrs stays stable even while an interface is down.
type Endpoint struct {
	Host  *netem.Host
	Addrs []netip.Addr
}

// Net is the uniform view a built topology exposes to workloads, probes,
// and events: the server hosts, one or more client endpoints, and the
// named links that events (loss ramps, degradations) manipulate.
type Net struct {
	// Server and ServerAddr are the first (usually only) server; the
	// engine mirrors them with Servers/ServerAddrs, so topologies fill
	// whichever form is natural.
	Server     *netem.Host
	ServerAddr netip.Addr
	// Servers lists every server host (the multi-server scale topology);
	// Servers[0] == Server.
	Servers     []*netem.Host
	ServerAddrs []netip.Addr

	Clients []Endpoint
	// Links holds every named duplex link. By convention the forward
	// (client→server) direction is AB.
	Links map[string]*netem.Duplex
	// NAT is the stateful middlebox, when the topology has one (§4.1).
	NAT *netem.Middlebox
	// PathIndex reports which fabric path a subflow's 4-tuple maps to —
	// ground truth for load-balancing analyses (ECMP only, else nil).
	PathIndex func(srcPort, dstPort uint16) int
}

// normalize mirrors the single-server convenience fields and the Servers
// slice into each other, whichever the topology filled.
func (n *Net) normalize() *Net {
	if len(n.Servers) == 0 && n.Server != nil {
		n.Servers = []*netem.Host{n.Server}
		n.ServerAddrs = []netip.Addr{n.ServerAddr}
	}
	if n.Server == nil && len(n.Servers) > 0 {
		n.Server = n.Servers[0]
		n.ServerAddr = n.ServerAddrs[0]
	}
	return n
}

// ClientAt returns the i-th client endpoint; an out-of-range index is a
// scenario bug.
func (n *Net) ClientAt(i int) Endpoint {
	if i < 0 || i >= len(n.Clients) {
		panic(fmt.Sprintf("scenario: topology has no client %d (have %d)", i, len(n.Clients)))
	}
	return n.Clients[i]
}

// Link returns a named link; unknown names are a scenario bug.
func (n *Net) Link(name string) *netem.Duplex {
	l, ok := n.Links[name]
	if !ok {
		panic(fmt.Sprintf("scenario: topology has no link %q", name))
	}
	return l
}

// TwoPath is the multihomed-client topology of §4.2/§4.3: two independent
// client paths ("path0", "path1") joined at a router, a fat trunk
// ("trunk") to the server.
type TwoPath struct {
	P0, P1 netem.LinkConfig
}

// Build implements Topology.
func (t TwoPath) Build(f sim.Fabric, _ int64) *Net {
	tp := topo.NewTwoPath(f, t.P0, t.P1)
	return &Net{
		Server:     tp.Server,
		ServerAddr: tp.ServerAddr,
		Clients:    []Endpoint{{Host: tp.Client, Addrs: tp.ClientAddrs[:]}},
		Links: map[string]*netem.Duplex{
			"path0": tp.Path[0], "path1": tp.Path[1], "trunk": tp.Trunk,
		},
	}
}

// ECMP is the §4.4 fabric: N parallel paths between two routers that
// load-balance flows by hashing the 4-tuple. The hash is seeded from the
// run seed, standing in for the unpredictable per-router hashing of real
// networks.
type ECMP struct {
	Paths []netem.LinkConfig
}

// Build implements Topology.
func (t ECMP) Build(f sim.Fabric, seed int64) *Net {
	tp := topo.NewECMP(f, t.Paths, uint64(seed))
	links := make(map[string]*netem.Duplex, len(tp.Paths))
	for i, d := range tp.Paths {
		links[fmt.Sprintf("path%d", i)] = d
	}
	return &Net{
		Server:     tp.Server,
		ServerAddr: tp.ServerAddr,
		Clients:    []Endpoint{{Host: tp.Client, Addrs: []netip.Addr{tp.ClientAddr}}},
		Links:      links,
		PathIndex:  tp.PathIndexOf,
	}
}

// Proc models per-packet host processing jitter: a fixed base cost plus
// exponential jitter with the given mean (the dominant term of the
// sub-millisecond delays in the §4.5 lab measurement).
type Proc struct {
	Base   time.Duration
	Jitter time.Duration
}

func (p Proc) model(c sim.Clock) func() time.Duration {
	rng := c.Rand()
	return func() time.Duration {
		return p.Base + time.Duration(rng.ExpFloat64()*float64(p.Jitter))
	}
}

// Direct is the §4.5 lab setup: two hosts on one duplex link ("wire"),
// with optional per-host processing-delay models.
type Direct struct {
	Link                   netem.LinkConfig
	ClientProc, ServerProc Proc
}

// Build implements Topology.
func (t Direct) Build(f sim.Fabric, _ int64) *Net {
	tp := topo.NewDirect(f, t.Link)
	// The jitter draws come from each host's own random stream, so they
	// are identical at any shard count.
	if t.ClientProc != (Proc{}) {
		tp.Client.SetProcDelay(t.ClientProc.model(tp.Client.Clock()))
	}
	if t.ServerProc != (Proc{}) {
		tp.Server.SetProcDelay(t.ServerProc.model(tp.Server.Clock()))
	}
	return &Net{
		Server:     tp.Server,
		ServerAddr: tp.ServerAddr,
		Clients:    []Endpoint{{Host: tp.Client, Addrs: []netip.Addr{tp.ClientAddr}}},
		Links:      map[string]*netem.Duplex{"wire": tp.Link},
	}
}

// NATPath is the §4.1 topology: a multihomed client whose two paths
// traverse a stateful middlebox with an idle timeout.
type NATPath struct {
	P0, P1 netem.LinkConfig
	Idle   time.Duration
	Expiry netem.ExpiryPolicy
}

// Build implements Topology.
func (t NATPath) Build(f sim.Fabric, _ int64) *Net {
	tp := topo.NewNATPath(f, t.P0, t.P1, t.Idle, t.Expiry)
	return &Net{
		Server:     tp.Server,
		ServerAddr: tp.ServerAddr,
		Clients:    []Endpoint{{Host: tp.Client, Addrs: tp.ClientAddrs[:]}},
		Links: map[string]*netem.Duplex{
			"path0": tp.Path[0], "path1": tp.Path[1], "trunk": tp.Trunk,
		},
		NAT: tp.NAT,
	}
}

// Star is the scale topology: N multihomed client hosts, every interface
// on its own access link into one aggregation router, and per-server
// bottleneck links ("bottleneck", "bottleneck1", ...) to Servers server
// hosts. The aggregation router hashes with the run seed.
//
// Host groups split the star for sharded worlds: the aggregation router
// is group 0, server k group 1+k, and client i group Servers+1+i — so a
// 4-shard world interleaves clients round-robin over the shards while the
// access- and bottleneck-link delays bound the lookahead.
type Star struct {
	Clients    int
	Ifaces     int // interfaces (→ subflows via full-mesh) per client
	Servers    int // server hosts sharing the aggregation router (0 = 1)
	Access     netem.LinkConfig
	Bottleneck netem.LinkConfig
	// Hosts, when non-nil, describes client i itself instead of the
	// uniform default (host "c<i>", Ifaces interfaces "if<j>" on unnamed
	// Access links): the fleet's devices, each with its own drawn links.
	Hosts func(i int) StarHost
}

// StarHost is one explicitly described client of a Star: its host name
// and one interface per access link.
type StarHost struct {
	Name  string
	Links []StarLink
}

// StarLink is one access link of a StarHost. The interface carries the
// link's name, and the link is registered in Net.Links under it, so
// events, traces and the drop metrics can address it.
type StarLink struct {
	Name string
	Cfg  netem.LinkConfig
}

// The bounds of Star's address plan: client i's interface j is
// 10.(1+i/200).(1+i%200).(1+j) and server k is 10.255.0.(1+k), so past
// these a byte wraps and two hosts would share an address.
const (
	maxStarClients = 255 * 200
	maxStarIfaces  = 255
	maxStarServers = 255
)

// checkStarBound panics when a Star has more of what than its address plan
// holds.
func checkStarBound(what string, n, limit int) {
	if n > limit {
		panic(fmt.Sprintf("scenario: Star with %d %s is over its address plan's %d", n, what, limit))
	}
}

// Build implements Topology. It panics, before it creates any host, on a
// star larger than its address plan.
func (t Star) Build(f sim.Fabric, seed int64) *Net {
	nsrv := t.Servers
	if nsrv < 1 {
		nsrv = 1
	}
	checkStarBound("clients", t.Clients, maxStarClients)
	checkStarBound("interfaces", t.Ifaces, maxStarIfaces)
	checkStarBound("servers", nsrv, maxStarServers)
	agg := netem.NewRouter(f.HostClock(0, "agg"), "agg", uint64(seed))
	n := &Net{Links: make(map[string]*netem.Duplex)}
	for k := 0; k < nsrv; k++ {
		name, lname := "server", "bottleneck"
		if k > 0 {
			name = fmt.Sprintf("server%d", k)
			lname = fmt.Sprintf("bottleneck%d", k)
		}
		srv := netem.NewHost(f.HostClock(1+k, name), name)
		addr := netip.AddrFrom4([4]byte{10, 255, 0, byte(1 + k)})
		trunk := netem.NewDuplex(lname, agg, srv, t.Bottleneck)
		srv.AddIface("eth0", addr, trunk.BA)
		agg.AddRoute(addr, trunk.AB)
		n.Links[lname] = trunk
		n.Servers = append(n.Servers, srv)
		n.ServerAddrs = append(n.ServerAddrs, addr)
	}
	n.Clients = make([]Endpoint, t.Clients)
	for i := range n.Clients {
		var sh StarHost
		nif := t.Ifaces
		if t.Hosts != nil {
			sh = t.Hosts(i)
			nif = len(sh.Links)
			checkStarBound("interfaces", nif, maxStarIfaces)
		} else {
			sh.Name = fmt.Sprintf("c%d", i)
		}
		h := netem.NewHost(f.HostClock(1+nsrv+i, sh.Name), sh.Name)
		ep := Endpoint{Host: h, Addrs: make([]netip.Addr, nif)}
		for j := range ep.Addrs {
			addr := netip.AddrFrom4([4]byte{10, byte(1 + i/200), byte(1 + i%200), byte(1 + j)})
			var d *netem.Duplex
			if sh.Links != nil {
				l := sh.Links[j]
				d = netem.NewDuplex(l.Name, h, agg, l.Cfg)
				h.AddIface(l.Name, addr, d.AB)
				n.Links[l.Name] = d
			} else {
				d = netem.NewDuplex(fmt.Sprintf("acc%d.%d", i, j), h, agg, t.Access)
				h.AddIface(fmt.Sprintf("if%d", j), addr, d.AB)
			}
			agg.AddRoute(addr, d.BA)
			ep.Addrs[j] = addr
		}
		n.Clients[i] = ep
	}
	return n
}
