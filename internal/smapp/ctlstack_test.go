package smapp

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestControllerStackMuxesConnections drives the split deployment with two
// concurrent connections: a kernel half and a controller stack over one
// simulated transport, as smappd and smappctl are over a socket.
func TestControllerStackMuxesConnections(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	net := topo.NewTwoPath(sim.New(11), p, p)
	tr := core.NewSimTransport(net.Client.Clock())
	k := NewKernel(net.Client, tr, mptcp.Config{})
	cs := NewControllerStack(tr, core.SimClock{S: net.Client.Clock()}, 0)
	mptcp.NewEndpoint(net.Server, mptcp.Config{}, nil).Listen(80, nil)
	cfg := ControllerConfig{Addrs: net.ClientAddrs[:]}
	if err := cs.Use("", cfg); err == nil {
		t.Fatal("a controller stack accepted the nil policy")
	}
	if err := cs.Use("fullmesh", cfg); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunFor(time.Millisecond) // the subscription crosses

	var conns [2]*mptcp.Connection
	var mesh [2]*controller.FullMesh
	for i := range conns {
		c, err := k.Dial(net.ClientAddrs[0], net.ServerAddr, 80, "", ControllerConfig{}, mptcp.ConnCallbacks{})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	net.Sim.RunFor(time.Second)
	if want := []uint32{conns[0].Token(), conns[1].Token()}; !slices.Equal(cs.order, want) {
		t.Fatalf("attach order %x, want the dial order %x", cs.order, want)
	}
	for i, c := range conns {
		mesh[i] = cs.bindings[c.Token()].ctl.(*controller.FullMesh)
		if len(c.Subflows()) != 2 || mesh[i].Stats.SubflowsCreated != 1 {
			t.Fatalf("conn %d: %d subflows, its instance created %d; want 2 and 1", i, len(c.Subflows()), mesh[i].Stats.SubflowsCreated)
		}
	}
	if mesh[0] == mesh[1] {
		t.Fatal("two connections share one controller instance")
	}
	if k.PM.EventsMasked != 0 {
		t.Fatalf("fullmesh masked %d events of a run without timeouts", k.PM.EventsMasked)
	}

	// A flap reaches both instances, and each rebuilds only its own subflow.
	flap := func() {
		net.Client.SetIfaceUp(net.ClientAddrs[1], false)
		net.Sim.RunFor(100 * time.Millisecond)
		net.Client.SetIfaceUp(net.ClientAddrs[1], true)
		net.Sim.RunFor(400 * time.Millisecond)
	}
	flap()
	for i, c := range conns {
		if st := mesh[i].Stats; len(c.Subflows()) != 2 || st.SubflowsDismissed != 1 || st.SubflowsCreated != 2 {
			t.Fatalf("conn %d after a flap: %d subflows, instance stats %+v", i, len(c.Subflows()), st)
		}
	}

	// Closing one leaves the other managed.
	conns[0].Abort()
	net.Sim.RunFor(time.Second)
	if !slices.Equal(cs.order, []uint32{conns[1].Token()}) || len(cs.bindings) != 1 {
		t.Fatalf("after closing conn 0: order %x, %d bindings", cs.order, len(cs.bindings))
	}
	flap()
	if mesh[0].Stats.SubflowsCreated != 2 || mesh[1].Stats.SubflowsCreated != 3 || len(conns[1].Subflows()) != 2 {
		t.Fatalf("after closing conn 0 and a flap: instances created %d and %d, conn 1 has %d subflows",
			mesh[0].Stats.SubflowsCreated, mesh[1].Stats.SubflowsCreated, len(conns[1].Subflows()))
	}

	// A second Use detaches every instance, and subscribes to what the new
	// policy handles: backup ignores address events, so the kernel masks
	// them instead of sending them across.
	if err := cs.Use("backup", cfg); err != nil {
		t.Fatal(err)
	}
	if len(cs.bindings)+len(cs.order) != 0 {
		t.Fatalf("second Use left %d bindings, %d ordered", len(cs.bindings), len(cs.order))
	}
	net.Sim.RunFor(time.Millisecond)
	sent, dismissed := k.PM.EventsSent, mesh[1].Stats.SubflowsDismissed
	flap()
	if mesh[1].Stats.SubflowsDismissed != dismissed || mesh[1].Stats.SubflowsCreated != 3 {
		t.Fatalf("the detached fullmesh instance still acts: %+v", mesh[1].Stats)
	}
	if k.PM.EventsMasked != 2 || k.PM.EventsSent != sent {
		t.Fatalf("backup's subscription: %d events masked, %d sent during a flap; want both address events masked",
			k.PM.EventsMasked, k.PM.EventsSent-sent)
	}
}

// TestWallClockCancelStopsAWaitingCallback cancels a wall-clock timer
// after it fired but while its callback waits for the mutex the event
// pump holds, as a closed event handled under the pump's lock does: the
// callback must not run once the lock is free.
func TestWallClockCancelStopsAWaitingCallback(t *testing.T) {
	var mu sync.Mutex
	clock := NewWallClock(&mu)
	ran := false
	mu.Lock()
	cancel := clock.After(0, func() { ran = true })
	time.Sleep(20 * time.Millisecond) // the timer fires; its callback waits for mu
	cancel()
	mu.Unlock()
	time.Sleep(50 * time.Millisecond) // a callback let through runs now
	mu.Lock()
	defer mu.Unlock()
	if ran {
		t.Fatal("a timer cancelled under the lock ran once the lock was free")
	}
}
