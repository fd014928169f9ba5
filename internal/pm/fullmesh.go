// Package pm implements the two subflow-creation strategies shipped in the
// Linux Multipath TCP kernel — the paper's in-kernel baselines ("only three
// path managers have been implemented in the kernel in several years"):
//
//   - full-mesh: one subflow per (local address × remote address) pair,
//     created eagerly and maintained as interfaces come and go (§2);
//   - ndiffports: n subflows over the same address pair with different
//     source ports, aimed at ECMP-load-balanced datacenters (§2, §4.4).
//
// Both plug into the in-kernel path-manager interface (mptcp.PathManager),
// the same seam the userspace Netlink path manager (internal/core) uses.
package pm

import (
	"net/netip"
	"sort"

	"repro/internal/mptcp"
)

// FullMesh is the kernel full-mesh path manager: as soon as a connection is
// established (and whenever a local interface comes up or the peer
// announces an address), it creates one subflow for every local×remote
// address pair. Only the client creates subflows, because the server is
// typically behind a NAT or firewall (§2).
//
// Connections are kept in creation order, not in a map: interface events
// fan out to every connection, and iterating a map would open subflows
// (and draw their random ports) in a different order each run, breaking
// per-seed determinism.
type FullMesh struct {
	mptcp.NopPM
	conns []*mptcp.Connection
}

// NewFullMesh returns a full-mesh path manager.
func NewFullMesh() *FullMesh {
	return &FullMesh{}
}

// ConnCreated implements mptcp.PathManager.
func (f *FullMesh) ConnCreated(c *mptcp.Connection) { f.conns = append(f.conns, c) }

// ConnClosed implements mptcp.PathManager.
func (f *FullMesh) ConnClosed(c *mptcp.Connection) {
	for i, oc := range f.conns {
		if oc == c {
			f.conns = append(f.conns[:i], f.conns[i+1:]...)
			return
		}
	}
}

// ConnEstablished implements mptcp.PathManager.
func (f *FullMesh) ConnEstablished(c *mptcp.Connection) { f.mesh(c) }

// AddrAnnounced implements mptcp.PathManager: a new remote address extends
// the mesh.
func (f *FullMesh) AddrAnnounced(c *mptcp.Connection, id uint8, addr netip.Addr, port uint16) {
	f.mesh(c)
}

// LocalAddrUp implements mptcp.PathManager: a new local interface extends
// the mesh of every connection.
func (f *FullMesh) LocalAddrUp(addr netip.Addr) {
	for _, c := range append([]*mptcp.Connection(nil), f.conns...) {
		f.mesh(c)
	}
}

// LocalAddrDown implements mptcp.PathManager: subflows bound to the lost
// interface are removed immediately, like the kernel implementation.
func (f *FullMesh) LocalAddrDown(addr netip.Addr) {
	for _, c := range append([]*mptcp.Connection(nil), f.conns...) {
		// Subflows returns a defensive copy, so closing while iterating
		// cannot invalidate the range.
		for _, sf := range c.Subflows() {
			if sf.Tuple().SrcIP == addr {
				c.CloseSubflow(sf, true)
			}
		}
	}
}

// mesh creates any missing (local × remote) subflow. Remote addresses are
// the initial destination plus everything the peer announced.
func (f *FullMesh) mesh(c *mptcp.Connection) {
	if !c.IsClient() || !c.Established() {
		return
	}
	type rmt struct {
		addr netip.Addr
		port uint16
	}
	init := c.InitialTuple()
	remotes := []rmt{{init.DstIP, init.DstPort}}
	// PeerAddrs is a map; walk it by sorted address ID so subflows (and
	// their random source ports) are opened in the same order every run.
	peers := c.PeerAddrs()
	ids := make([]int, 0, len(peers))
	for id := range peers {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		ap := peers[uint8(id)]
		port := ap.Port()
		if port == 0 {
			port = init.DstPort
		}
		remotes = append(remotes, rmt{ap.Addr(), port})
	}
	used := make(map[[2]netip.Addr]bool)
	for _, sf := range c.Subflows() {
		t := sf.Tuple()
		used[[2]netip.Addr{t.SrcIP, t.DstIP}] = true
	}
	for _, laddr := range c.Endpoint().Host().Addrs() {
		for _, r := range remotes {
			key := [2]netip.Addr{laddr, r.addr}
			if used[key] {
				continue
			}
			if _, err := c.OpenSubflow(laddr, 0, r.addr, r.port, false); err == nil {
				used[key] = true
			}
		}
	}
}
