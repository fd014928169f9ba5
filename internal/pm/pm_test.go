package pm

import (
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

func twoPathRig(t *testing.T, seed int64, p mptcp.PathManager) (*topo.TwoPath, *mptcp.Connection, *mptcp.Endpoint) {
	t.Helper()
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	n := topo.NewTwoPath(sim.New(seed), cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, p)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	sep.Listen(80, func(*mptcp.Connection) {})
	c, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	return n, c, cep
}

func TestFullMeshCreatesSubflowPerInterface(t *testing.T) {
	n, c, _ := twoPathRig(t, 1, NewFullMesh())
	n.Sim.Run()
	if got := len(c.Subflows()); got != 2 {
		t.Fatalf("subflows = %d, want 2 (one per interface)", got)
	}
	srcs := map[string]bool{}
	for _, sf := range c.Subflows() {
		srcs[sf.Tuple().SrcIP.String()] = true
		if !sf.Established() {
			t.Fatalf("subflow %v not established", sf.Tuple())
		}
	}
	if len(srcs) != 2 {
		t.Fatalf("subflows share a source address: %v", srcs)
	}
}

func TestFullMeshServerSidePassive(t *testing.T) {
	// The server's full-mesh PM must NOT create subflows (clients are
	// behind NATs; only the client side creates).
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	n := topo.NewTwoPath(sim.New(2), cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, nil) // no client PM
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, NewFullMesh())
	var sconn *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { sconn = c })
	cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	n.Sim.Run()
	if sconn == nil {
		t.Fatal("no server connection")
	}
	if got := len(sconn.Subflows()); got != 1 {
		t.Fatalf("server created subflows: %d", got)
	}
}

func TestFullMeshInterfaceFlap(t *testing.T) {
	n, c, _ := twoPathRig(t, 3, NewFullMesh())
	n.Sim.Run()
	if len(c.Subflows()) != 2 {
		t.Fatalf("initial mesh = %d", len(c.Subflows()))
	}
	// Interface 1 goes down: its subflow is removed at once.
	n.Client.SetIfaceUp(n.ClientAddrs[1], false)
	n.Sim.Run()
	if got := len(c.Subflows()); got != 1 {
		t.Fatalf("subflows after if-down = %d, want 1", got)
	}
	// Interface returns: the mesh is rebuilt.
	n.Client.SetIfaceUp(n.ClientAddrs[1], true)
	n.Sim.Run()
	if got := len(c.Subflows()); got != 2 {
		t.Fatalf("subflows after if-up = %d, want 2", got)
	}
}

func TestFullMeshReactsToAddAddr(t *testing.T) {
	// Give the server a second address; when it announces it, the client
	// full-mesh extends to 2 local × 2 remote = 4 subflows.
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	n := topo.NewTwoPath(sim.New(4), cfg, cfg)
	serverAddr2 := topo.ServerAddr.Next()
	n.Server.AddIface("eth1", serverAddr2, n.Trunk.BA)
	n.Router.AddRoute(serverAddr2, n.Trunk.AB)

	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, NewFullMesh())
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	var sconn *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { sconn = c })
	c, err := cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()
	sconn.AnnounceAddr(serverAddr2, 80)
	n.Sim.Run()
	if got := len(c.Subflows()); got != 4 {
		t.Fatalf("mesh after ADD_ADDR = %d, want 4", got)
	}
}

func TestNDiffPortsCreatesNSubflows(t *testing.T) {
	n, c, _ := twoPathRig(t, 5, NewNDiffPorts(5))
	n.Sim.Run()
	if got := len(c.Subflows()); got != 5 {
		t.Fatalf("subflows = %d, want 5", got)
	}
	// All share the address pair but use distinct source ports.
	ports := map[uint16]bool{}
	for _, sf := range c.Subflows() {
		tp := sf.Tuple()
		if tp.SrcIP != n.ClientAddrs[0] || tp.DstIP != n.ServerAddr {
			t.Fatalf("ndiffports strayed off the initial address pair: %v", tp)
		}
		ports[tp.SrcPort] = true
	}
	if len(ports) != 5 {
		t.Fatalf("source ports not distinct: %v", ports)
	}
}

func TestNDiffPortsServerPassive(t *testing.T) {
	cfg := netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond}
	n := topo.NewTwoPath(sim.New(6), cfg, cfg)
	cep := mptcp.NewEndpoint(n.Client, mptcp.Config{}, nil)
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, NewNDiffPorts(4))
	var sconn *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { sconn = c })
	cep.Connect(n.ClientAddrs[0], n.ServerAddr, 80, mptcp.ConnCallbacks{})
	n.Sim.Run()
	if len(sconn.Subflows()) != 1 {
		t.Fatalf("server ndiffports created subflows: %d", len(sconn.Subflows()))
	}
}

// replacingMesh is the kernel full mesh plus a path manager that answers
// every subflow death at once, inside the event that killed it, by opening
// a replacement from the connection's initial address.
type replacingMesh struct {
	*FullMesh
	t                    *testing.T
	closed, replacements []*tcp.Subflow
}

func (p *replacingMesh) SubflowClosed(c *mptcp.Connection, sf *tcp.Subflow, reason tcp.Errno) {
	p.closed = append(p.closed, sf)
	init := c.InitialTuple()
	r, err := c.OpenSubflow(init.SrcIP, 0, init.DstIP, init.DstPort, false)
	if err != nil {
		p.t.Fatal(err)
	}
	p.replacements = append(p.replacements, r)
}

// TestSpareNotReusedInsideRetiringEvent flaps an interface under the
// kernel full mesh. LocalAddrDown closes the subflow on it while ranging
// over a Subflows() snapshot, and the path manager opens a replacement in
// that same event: the replacement must be a new object, not the dying
// subflow a caller up the stack still holds. The re-join, one event later
// when the interface returns, must reuse it.
func TestSpareNotReusedInsideRetiringEvent(t *testing.T) {
	p := &replacingMesh{FullMesh: NewFullMesh(), t: t}
	n, c, _ := twoPathRig(t, 7, p)
	n.Sim.Run()
	if len(c.Subflows()) != 2 {
		t.Fatalf("initial mesh = %d", len(c.Subflows()))
	}
	var lost, rejoin *tcp.Subflow
	for _, sf := range c.Subflows() {
		if sf.Tuple().SrcIP == n.ClientAddrs[1] {
			lost = sf
		}
	}
	n.Sim.After(time.Millisecond, "down", func() { n.Client.SetIfaceUp(n.ClientAddrs[1], false) })
	n.Sim.After(50*time.Millisecond, "up", func() { n.Client.SetIfaceUp(n.ClientAddrs[1], true) })
	n.Sim.Run()
	if len(p.closed) != 1 || p.closed[0] != lost || len(p.replacements) != 1 {
		t.Fatalf("%d subflows closed, %d replaced; want the one on the downed interface", len(p.closed), len(p.replacements))
	}
	if p.replacements[0] == lost {
		t.Fatal("the replacement opened inside the retiring event reused the dying subflow")
	}
	for _, sf := range c.Subflows() {
		if sf.Tuple().SrcIP == n.ClientAddrs[1] {
			rejoin = sf
		}
	}
	if len(c.Subflows()) != 3 || rejoin == nil || !rejoin.Established() {
		t.Fatalf("after the flap: %d subflows, re-join %v", len(c.Subflows()), rejoin)
	}
	if rejoin != lost {
		t.Fatal("the re-join, a later event, did not reuse the spare")
	}
}
