package controller

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// ctlRig is a two-path world where the client endpoint runs the Netlink PM
// with the given controller attached over a simulated transport.
type ctlRig struct {
	net    *topo.TwoPath
	lib    *core.Library
	cep    *mptcp.Endpoint
	sep    *mptcp.Endpoint
	client *mptcp.Connection
	server *mptcp.Connection
}

func newCtlRig(t *testing.T, seed int64, p0, p1 netem.LinkConfig, ctl Controller, tcpCfg tcp.Config) *ctlRig {
	t.Helper()
	r := &ctlRig{}
	r.net = topo.NewTwoPath(sim.New(seed), p0, p1)
	tr := core.NewSimTransport(r.net.Sim)
	pm := core.NewNetlinkPM(r.net.Sim, tr)
	r.lib = core.NewLibrary(tr, core.SimClock{S: r.net.Sim}, 1)
	ctl.Attach(r.lib)
	r.cep = mptcp.NewEndpoint(r.net.Client, mptcp.Config{TCP: tcpCfg}, pm)
	r.sep = mptcp.NewEndpoint(r.net.Server, mptcp.Config{TCP: tcpCfg}, nil)
	// Let the subscription cross the transport before any connection.
	r.net.Sim.RunFor(time.Millisecond)
	return r
}

func (r *ctlRig) listen(accept func(*mptcp.Connection)) {
	r.sep.Listen(80, func(c *mptcp.Connection) {
		r.server = c
		if accept != nil {
			accept(c)
		}
	})
}

func (r *ctlRig) connect(t *testing.T, cb mptcp.ConnCallbacks) {
	t.Helper()
	var err error
	r.client, err = r.cep.Connect(r.net.ClientAddrs[0], r.net.ServerAddr, 80, cb)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserFullMeshBuildsMesh(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	ctl := NewFullMesh(netip2(topo.ClientAddr1, topo.ClientAddr2))
	r := newCtlRig(t, 1, p, p, ctl, tcp.Config{})
	r.listen(nil)
	r.connect(t, mptcp.ConnCallbacks{})
	r.net.Sim.Run()
	if got := len(r.client.Subflows()); got != 2 {
		t.Fatalf("mesh = %d subflows, want 2", got)
	}
	if ctl.Stats.SubflowsCreated != 1 {
		t.Fatalf("controller created %d subflows, want exactly 1 (initial excluded)", ctl.Stats.SubflowsCreated)
	}
}

func TestUserFullMeshReestablishesAfterRST(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	ctl := NewFullMesh(netip2(topo.ClientAddr1, topo.ClientAddr2))
	r := newCtlRig(t, 2, p, p, ctl, tcp.Config{})
	r.listen(nil)
	r.connect(t, mptcp.ConnCallbacks{})
	r.net.Sim.Run()
	// A middlebox-style RST kills one subflow from the server side.
	victim := r.server.Subflows()[1]
	r.server.CloseSubflow(victim, true)
	r.net.Sim.RunFor(200 * time.Millisecond)
	if len(r.client.Subflows()) != 1 {
		t.Fatalf("subflows right after RST = %d, want 1", len(r.client.Subflows()))
	}
	// After retryAfterRST (1s) the controller re-establishes it.
	r.net.Sim.RunFor(2 * time.Second)
	if len(r.client.Subflows()) != 2 {
		t.Fatalf("subflows after retry window = %d, want 2", len(r.client.Subflows()))
	}
	if ctl.Stats.Reestablishments != 1 {
		t.Fatalf("reestablishments = %d", ctl.Stats.Reestablishments)
	}
	if ctl.Stats.RetriesByErrno[104] != 1 { // ECONNRESET
		t.Fatalf("retries by errno = %v", ctl.Stats.RetriesByErrno)
	}
}

func TestUserFullMeshInterfaceFlap(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond}
	ctl := NewFullMesh(netip2(topo.ClientAddr1, topo.ClientAddr2))
	r := newCtlRig(t, 3, p, p, ctl, tcp.Config{})
	r.listen(nil)
	r.connect(t, mptcp.ConnCallbacks{})
	r.net.Sim.Run()
	r.net.Client.SetIfaceUp(r.net.ClientAddrs[1], false)
	r.net.Sim.RunFor(500 * time.Millisecond)
	if len(r.client.Subflows()) != 1 {
		t.Fatalf("subflows after if-down = %d, want 1", len(r.client.Subflows()))
	}
	if ctl.Stats.SubflowsDismissed != 1 {
		t.Fatalf("dismissed = %d", ctl.Stats.SubflowsDismissed)
	}
	r.net.Client.SetIfaceUp(r.net.ClientAddrs[1], true)
	r.net.Sim.RunFor(500 * time.Millisecond)
	if len(r.client.Subflows()) != 2 {
		t.Fatalf("subflows after if-up = %d, want 2", len(r.client.Subflows()))
	}
}

func TestBackupSwitchesOnRTOThreshold(t *testing.T) {
	// The Fig. 2a scenario: transfer starts on the primary; after 1s the
	// primary's loss jumps to 30%; the controller must close it once the
	// RTO exceeds 1s and continue on the backup path.
	p0 := netem.LinkConfig{RateBps: 8e6, Delay: 15 * time.Millisecond}
	p1 := netem.LinkConfig{RateBps: 8e6, Delay: 15 * time.Millisecond}
	ctl := NewBackup(topo.ClientAddr2)
	r := newCtlRig(t, 4, p0, p1, ctl, tcp.Config{})
	sink := app.NewSink(r.net.Sim, 10<<20, nil)
	r.listen(func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
	src := app.NewSource(r.net.Sim, 10<<20, false)
	r.connect(t, src.Callbacks())
	r.net.Sim.Schedule(sim.Second, "loss-up", func() { r.net.Path[0].SetLoss(0.30) })
	r.net.Sim.RunUntil(60 * sim.Second)

	if ctl.Stats.Switches != 1 {
		t.Fatalf("switches = %d, want 1", ctl.Stats.Switches)
	}
	// Only the backup-path subflow remains, and the transfer completed.
	if len(r.client.Subflows()) != 1 {
		t.Fatalf("subflows = %d", len(r.client.Subflows()))
	}
	if got := r.client.Subflows()[0].Tuple().SrcIP; got != topo.ClientAddr2 {
		t.Fatalf("surviving subflow on %v, want backup addr", got)
	}
	if !sink.Done {
		t.Fatalf("transfer incomplete: %d bytes", sink.Received)
	}
	// The kernel alone would need ~12 minutes; the controller must act
	// within seconds of the loss starting.
	if sink.CompletedAt > 60*sim.Second {
		t.Fatalf("completion at %v", sink.CompletedAt)
	}
}

func TestBackupHandlesOutrightDeath(t *testing.T) {
	p := netem.LinkConfig{RateBps: 8e6, Delay: 15 * time.Millisecond}
	ctl := NewBackup(topo.ClientAddr2)
	r := newCtlRig(t, 5, p, p, ctl, tcp.Config{MaxBackoffs: 2})
	sink := app.NewSink(r.net.Sim, 1<<20, nil)
	r.listen(func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })
	src := app.NewSource(r.net.Sim, 1<<20, false)
	r.connect(t, src.Callbacks())
	r.net.Sim.RunFor(100 * time.Millisecond)
	r.net.Path[0].SetUp(false) // hard interface cut, primary dies fast
	r.net.Sim.RunUntil(30 * sim.Second)
	if ctl.Stats.Switches != 1 {
		t.Fatalf("switches = %d", ctl.Stats.Switches)
	}
	if !sink.Done {
		t.Fatalf("transfer incomplete after failover: %d", sink.Received)
	}
}

func TestStreamOpensSecondSubflowUnderLoss(t *testing.T) {
	// §4.3: 2×5 Mbps paths, 64 KB block per second, 30% loss on the
	// initial path. The smart-stream controller must detect the stalled
	// block at the 500 ms probe and open the second subflow.
	p := netem.LinkConfig{RateBps: 5e6, Delay: 10 * time.Millisecond}
	ctl := NewStream(topo.ClientAddr2)
	r := newCtlRig(t, 6, p, p, ctl, tcp.Config{})
	bsink := app.NewBlockSink(r.net.Sim, 64<<10)
	r.listen(func(c *mptcp.Connection) { c.SetCallbacks(bsink.Callbacks()) })
	streamer := app.NewBlockStreamer(r.net.Sim, time.Second, 64<<10, 30)
	r.connect(t, streamer.Callbacks())
	r.net.Sim.Schedule(sim.Second, "loss-up", func() { r.net.Path[0].SetLoss(0.30) })
	r.net.Sim.RunUntil(40 * sim.Second)

	if ctl.Stats.SecondOpened == 0 {
		t.Fatal("controller never opened the second subflow")
	}
	if len(bsink.CompletedAt) < 28 {
		t.Fatalf("only %d/30 blocks delivered", len(bsink.CompletedAt))
	}
	// Late blocks (after adaptation) must be delivered promptly: check
	// the 90th-percentile-ish delay of the second half.
	half := bsink.CompletedAt[15:]
	bad := 0
	for k, at := range half {
		sent := streamer.StartedAt.Add(time.Duration(k+15) * time.Second)
		if time.Duration(at-sent) > 2*time.Second {
			bad++
		}
	}
	if bad > len(half)/4 {
		t.Fatalf("%d/%d post-adaptation blocks exceeded 2s", bad, len(half))
	}
}

func TestStreamStaysQuietOnCleanPath(t *testing.T) {
	// "if the initial subflow is fast enough to support the stream no
	// additional subflow is established."
	p := netem.LinkConfig{RateBps: 5e6, Delay: 10 * time.Millisecond}
	ctl := NewStream(topo.ClientAddr2)
	r := newCtlRig(t, 7, p, p, ctl, tcp.Config{})
	bsink := app.NewBlockSink(r.net.Sim, 64<<10)
	r.listen(func(c *mptcp.Connection) { c.SetCallbacks(bsink.Callbacks()) })
	streamer := app.NewBlockStreamer(r.net.Sim, time.Second, 64<<10, 10)
	r.connect(t, streamer.Callbacks())
	r.net.Sim.RunUntil(15 * sim.Second)
	if ctl.Stats.SecondOpened != 0 {
		t.Fatal("controller opened a second subflow on a clean path")
	}
	if len(r.client.Subflows()) != 1 {
		t.Fatalf("subflows = %d", len(r.client.Subflows()))
	}
	if len(bsink.CompletedAt) != 10 {
		t.Fatalf("blocks = %d", len(bsink.CompletedAt))
	}
}

func TestNDiffPortsUserCreatesSubflows(t *testing.T) {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	ctl := NewNDiffPorts(3)
	r := newCtlRig(t, 8, p, p, ctl, tcp.Config{})
	r.listen(nil)
	r.connect(t, mptcp.ConnCallbacks{})
	r.net.Sim.Run()
	if got := len(r.client.Subflows()); got != 3 {
		t.Fatalf("subflows = %d, want 3", got)
	}
	// All joins left after the initial SYN; the gap is RTT plus the
	// netlink round trip — microseconds of extra delay, not milliseconds.
	var initial, join *tcp.Subflow
	for _, sf := range r.client.Subflows() {
		if sf.Tuple() == r.client.InitialTuple() {
			initial = sf
		} else if join == nil {
			join = sf
		}
	}
	gap := time.Duration(join.SynSentAt() - initial.SynSentAt())
	rtt := 10 * time.Millisecond
	if gap < rtt {
		t.Fatalf("join before handshake completed: gap=%v", gap)
	}
	if gap > rtt+time.Millisecond {
		t.Fatalf("netlink overhead too large: gap=%v", gap)
	}
}

// netip2 builds the local-address slice (keeps call sites short).
func netip2(a, b netip.Addr) []netip.Addr { return []netip.Addr{a, b} }

// TestFreshFullMeshRetriesFormat: RetriesByErrno stays nil until the first
// retry, and a nil map prints as an empty one does, so the longlived
// report line reads the same as when the map was made up front.
func TestFreshFullMeshRetriesFormat(t *testing.T) {
	ctl := NewFullMesh(netip2(topo.ClientAddr1, topo.ClientAddr2))
	if got := fmt.Sprintf("%v", ctl.Stats.RetriesByErrno); got != "map[]" {
		t.Fatalf("fresh RetriesByErrno formats as %q, want map[]", got)
	}
}
