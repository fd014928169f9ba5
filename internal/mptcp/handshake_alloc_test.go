package mptcp

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
)

// TestJoinHandshakeAllocBudget pins what one additional subflow costs end
// to end on both hosts — OpenSubflow, the authenticated MP_JOIN handshake
// (two HMACs computed and two verified), its removal by RST — and what a
// connection's life costs (Connect, MP_CAPABLE handshake, close from both
// sides). A join is two objects: a Subflow at each end, its congestion
// controller inside. It was 106 when every subflow formatted its tuple into
// three timer names, every HMAC built crypto/hmac's digests, and every
// handshake option was a heap object cloned per transmission; a
// connection's life was 97 (19 now: the subflow lists start inside the
// Connection).
func TestJoinHandshakeAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	p0, p1 := fastPaths()
	net := topo.NewTwoPath(sim.New(1), p0, p1)
	cep := NewEndpoint(net.Client, Config{}, nil)
	sep := NewEndpoint(net.Server, Config{}, nil)
	sep.Listen(80, func(c *Connection) {
		c.SetCallbacks(ConnCallbacks{OnPeerClose: func(c *Connection) { c.Close() }})
	})
	dial := func() *Connection {
		c, err := cep.Connect(net.ClientAddrs[0], net.ServerAddr, 80, ConnCallbacks{})
		if err != nil {
			t.Fatal(err)
		}
		net.Sim.RunFor(100 * time.Millisecond)
		if !c.Established() {
			t.Fatal("connection did not establish")
		}
		return c
	}
	c := dial()
	join := func() {
		sf, err := c.OpenSubflow(net.ClientAddrs[1], 0, net.ServerAddr, 80, false)
		if err != nil {
			t.Fatal(err)
		}
		net.Sim.RunFor(100 * time.Millisecond)
		if !sf.Established() || len(c.subflows) != 2 {
			t.Fatal("join did not establish")
		}
		c.CloseSubflow(sf, true)
		net.Sim.RunFor(100 * time.Millisecond)
		if len(c.subflows) != 1 {
			t.Fatal("joined subflow not removed")
		}
	}
	open := func() {
		c := dial()
		c.Close()
		net.Sim.RunFor(200 * time.Millisecond)
		if !c.Closed() {
			t.Fatal("connection did not close")
		}
	}
	for i := 0; i < 64; i++ { // warm the pools, the maps and the port table
		join()
		open()
	}
	if avg := testing.AllocsPerRun(500, join); avg > 2 {
		t.Errorf("MP_JOIN handshake and removal allocate %.0f objects, want 2", avg)
	}
	if avg := testing.AllocsPerRun(500, open); avg > 19 {
		t.Errorf("connection open and close allocate %.0f objects, want 19", avg)
	}
}
