package scenario

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/stats"
)

var (
	bClient1 = netip.MustParseAddr("10.1.0.1")
	bClient2 = netip.MustParseAddr("10.2.0.1")
	bServer  = netip.MustParseAddr("10.99.0.1")
)

// builderTwoPathNAT declares, purely as data, the §4.1-style shape: a
// multihomed client whose two paths traverse a NAT middlebox before a
// trunk to the server.
func builderTwoPathNAT() Builder {
	link := netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond}
	trunk := netem.LinkConfig{RateBps: 1e9, Delay: 100 * time.Microsecond}
	return Builder{
		Hosts: []HostSpec{
			{Name: "client", Ifaces: []IfaceSpec{
				{Name: "if0", Addr: bClient1, Link: "p0"},
				{Name: "if1", Addr: bClient2, Link: "p1"},
			}},
			{Name: "server", Ifaces: []IfaceSpec{
				{Name: "eth0", Addr: bServer, Link: "trunk"},
			}},
		},
		Middleboxes: []MiddleboxSpec{
			{Name: "nat", Idle: 60 * time.Second, Expiry: netem.ExpiryRST},
		},
		Links: []LinkSpec{
			{Name: "p0", A: "client", B: "nat", Cfg: link},
			{Name: "p1", A: "client", B: "nat", Cfg: link},
			{Name: "trunk", A: "nat", B: "server", Cfg: trunk},
		},
		Routes: []RouteSpec{
			{Node: "nat", Dst: bClient1, Links: []string{"p0"}},
			{Node: "nat", Dst: bClient2, Links: []string{"p1"}},
			{Node: "nat", Dst: bServer, Links: []string{"trunk"}},
		},
		ClientHosts: []string{"client"},
		Server:      "server",
	}
}

func TestBuilderTopologyCarriesTraffic(t *testing.T) {
	wl := &Bulk{Bytes: 256 << 10}
	run := &RunSpec{
		Label:    "builder",
		Topology: builderTwoPathNAT(),
		Workload: wl,
		Policy:   "fullmesh",
		Settle:   time.Millisecond,
		Stop:     Stop{Horizon: 30 * time.Second, Poll: 50 * time.Millisecond, Until: wl.Done},
	}
	sp := &Spec{Name: "test-builder", Runs: []*RunSpec{run}}
	var rt *Run
	sp.Render = func(_ *stats.Result, runs []*Run) { rt = runs[0] }
	Execute(sp, 1)
	if !wl.Sink.Done {
		t.Fatal("bulk transfer through the built topology did not complete")
	}
	if rt.Net.NAT == nil {
		t.Fatal("Net.NAT not populated from the middlebox spec")
	}
	if got := len(rt.Net.Client().Addrs); got != 2 {
		t.Fatalf("client endpoint has %d addrs, want 2", got)
	}
	// The fullmesh policy must have brought up a subflow on each path.
	if got := len(rt.Conn.Subflows()); got < 2 {
		t.Fatalf("expected ≥2 subflows via fullmesh over the built topology, got %d", got)
	}
	// Named links are addressable for events.
	if rt.Net.Link("p0") == nil || rt.Net.Link("trunk") == nil {
		t.Fatal("named links missing")
	}
}

func TestBuilderLossRampStallsTransfer(t *testing.T) {
	wl := &Bulk{Bytes: 4 << 20}
	run := &RunSpec{
		Label:    "builder-ramp",
		Topology: builderTwoPathNAT(),
		Workload: wl,
		Policy:   "fullmesh",
		Settle:   time.Millisecond,
		// Ramp both paths to a blackout early on.
		Events: append(
			LossRamp("p0", 100*time.Millisecond, 100*time.Millisecond, 0.5, 1.0),
			LossRamp("p1", 100*time.Millisecond, 100*time.Millisecond, 0.5, 1.0)...),
		Stop: Stop{Horizon: 5 * time.Second, Poll: 50 * time.Millisecond, Until: wl.Done},
	}
	Execute(&Spec{Name: "test-builder-ramp", Runs: []*RunSpec{run}}, 1)
	if wl.Sink.Done {
		t.Fatal("4 MB transfer completed despite the loss ramp to blackout")
	}
}

func TestBuilderPanicsOnSpecBugs(t *testing.T) {
	mustPanic := func(name string, b Builder) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		Execute(&Spec{Name: "x", Runs: []*RunSpec{{
			Label: "x", Topology: b, Workload: &Bulk{Bytes: 1},
			Stop: Stop{Horizon: time.Millisecond},
		}}}, 1)
	}
	b := builderTwoPathNAT()
	b.Links[0].A = "nosuch"
	mustPanic("unknown link endpoint", b)

	b = builderTwoPathNAT()
	b.Hosts[0].Ifaces[0].Link = "trunk" // client is not an endpoint of trunk
	mustPanic("iface on unrelated link", b)

	b = builderTwoPathNAT()
	b.Server = "nat" // not a host
	mustPanic("server not a host", b)
}
