package mptcp

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestNopPMAcceptsButNeverOpens runs a server endpoint whose path manager
// is NopPM{} through every hook: the connection's life, a peer MP_JOIN and
// that subflow's death, the peer's ADD_ADDR and its withdrawal, an RTO and
// a flap of the server's interface. The server takes the peer's join and
// the peer's address announcement, and never opens a subflow itself: each
// of its subflows is on the listening port, and the client sees no join it
// did not open.
func TestNopPMAcceptsButNeverOpens(t *testing.T) {
	p0, p1 := fastPaths()
	net := topo.NewTwoPath(sim.New(21), p0, p1)
	cpm := newRecPM()
	cep := NewEndpoint(net.Client, Config{}, cpm)
	sep := NewEndpoint(net.Server, Config{}, NopPM{})
	var server *Connection
	var rcvd uint64
	serverClosed := false
	sep.Listen(80, func(c *Connection) {
		server = c
		c.cb = ConnCallbacks{
			OnData:      func(_ *Connection, total uint64) { rcvd = total },
			OnPeerClose: func(c *Connection) { c.Close() },
			OnClosed:    func(*Connection) { serverClosed = true },
		}
	})
	client, err := cep.Connect(net.ClientAddrs[0], net.ServerAddr, 80, ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() { net.Sim.RunFor(5 * time.Second) }
	run()
	if server == nil || !server.Established() {
		t.Fatal("the NopPM server did not accept the connection")
	}

	// A peer MP_JOIN: accepted.
	join, err := client.OpenSubflow(net.ClientAddrs[1], 0, net.ServerAddr, 80, false)
	if err != nil {
		t.Fatal(err)
	}
	run()
	if !join.Established() || len(server.Subflows()) != 2 {
		t.Fatalf("join established=%v, server has %d subflows; want the join accepted",
			join.Established(), len(server.Subflows()))
	}
	for _, sf := range server.Subflows() {
		if sf.Tuple().SrcPort != 80 {
			t.Fatalf("server subflow %v is not on the listening port", sf.Tuple())
		}
	}

	// ADD_ADDR and its withdrawal: recorded, acted on by no one.
	client.AnnounceAddr(net.ClientAddrs[1], 0)
	run()
	if len(server.PeerAddrs()) != 1 {
		t.Fatalf("peer addrs %v after ADD_ADDR", server.PeerAddrs())
	}
	client.WithdrawAddr(net.ClientAddrs[1])
	run()
	if len(server.PeerAddrs()) != 0 {
		t.Fatalf("peer addrs %v after the withdrawal", server.PeerAddrs())
	}

	// The server's interface flaps while it sends, so its RTO fires.
	net.Server.SetIfaceUp(net.ServerAddr, false)
	if err := server.Write(20_000); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunFor(2 * time.Second)
	net.Server.SetIfaceUp(net.ServerAddr, true)
	run()
	if cpm.subEstab == nil || len(client.Subflows()) != 2 {
		t.Fatalf("client has %d subflows after the flap, want its own two", len(client.Subflows()))
	}
	var timeouts uint64
	for _, sf := range server.Subflows() {
		timeouts += sf.Info().Stats.Timeouts
	}
	if timeouts == 0 {
		t.Fatal("no server RTO fired while its interface was down")
	}

	// The joined subflow dies, then the connection ends.
	client.CloseSubflow(join, true)
	run()
	if len(server.Subflows()) != 1 {
		t.Fatalf("server has %d subflows after the join's RST, want 1", len(server.Subflows()))
	}
	client.Write(10_000)
	client.Close()
	run()
	if rcvd != 10_000 || !serverClosed || !server.Closed() {
		t.Fatalf("received %d, server closed=%v/%v; want 10000 and closed", rcvd, serverClosed, server.Closed())
	}

	// The server never opened a subflow: the client saw exactly the two it
	// opened, and every server subflow was on the listening port.
	if n := len(cpm.subEstab); n != 2 {
		t.Fatalf("client saw %d subflows established, want the 2 it opened", n)
	}
	for _, sf := range cpm.subEstab {
		if sf.Tuple().DstPort != 80 {
			t.Fatalf("client subflow %v was not one it opened to :80", sf.Tuple())
		}
	}
}
