package fleet

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestStarIsTheFleetTopology pins the names and addresses the fleet's
// events, traces and reports address its network by — the ones the
// package's own topology builder produced before scenario.Star took
// per-client hosts: host, interface and link names, client addresses, each
// link carrying its device's drawn quality, and the named links (and only
// they) registered in Net.Links.
func TestStarIsTheFleetTopology(t *testing.T) {
	devs, err := Generate(202, genCfg(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	bottleneck := netem.LinkConfig{RateBps: 400e6, Delay: 500 * time.Microsecond}
	n := Star(devs, 2, bottleneck).Build(sim.New(1), 1)

	if len(n.Clients) != len(devs) || len(n.Servers) != 2 {
		t.Fatalf("built %d clients, %d servers", len(n.Clients), len(n.Servers))
	}
	if got, want := len(n.Links), 2*len(devs)+2; got != want {
		t.Fatalf("%d named links, want %d (two per device, one per server)", got, want)
	}
	for _, name := range []string{"bottleneck", "bottleneck1"} {
		if n.Links[name] == nil {
			t.Fatalf("no link %q", name)
		}
	}
	for _, i := range []int{0, 1, 199, 200, 201} {
		d, cl := devs[i], n.Clients[i]
		if got, want := cl.Host.Name(), fmt.Sprintf("d%d", i); got != want {
			t.Errorf("device %d: host %q, want %q", i, got, want)
		}
		wifi := netip.AddrFrom4([4]byte{10, byte(1 + i/200), byte(1 + i%200), 1})
		lte := netip.AddrFrom4([4]byte{10, byte(1 + i/200), byte(1 + i%200), 2})
		if len(cl.Addrs) != 2 || cl.Addrs[0] != wifi || cl.Addrs[1] != lte {
			t.Errorf("device %d: addrs %v, want [%v %v]", i, cl.Addrs, wifi, lte)
		}
		for j, want := range []struct {
			name string
			cfg  netem.LinkConfig
		}{{fmt.Sprintf("wifi%d", i), d.WiFi}, {fmt.Sprintf("lte%d", i), d.LTE}} {
			ifc := cl.Host.Iface(cl.Addrs[j])
			if ifc == nil || ifc.IfName != want.name {
				t.Errorf("device %d: interface %d is %+v, want %q", i, j, ifc, want.name)
				continue
			}
			dx := n.Links[want.name]
			if dx == nil || dx.AB != ifc.Link() {
				t.Errorf("device %d: link %q is not registered as interface %d's egress", i, want.name, j)
				continue
			}
			if got, wantName := dx.AB.Name(), fmt.Sprintf("%s:d%d->agg", want.name, i); got != wantName {
				t.Errorf("device %d: forward link %q, want %q", i, got, wantName)
			}
			if dx.AB.Delay() != want.cfg.Delay || dx.AB.Loss() != want.cfg.Loss ||
				dx.BA.Delay() != want.cfg.Delay || dx.BA.Loss() != want.cfg.Loss {
				t.Errorf("device %d: link %q does not carry the device's drawn delay/loss", i, want.name)
			}
		}
	}
}
