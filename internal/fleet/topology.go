package fleet

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/scenario"
)

// Star is the fleet's network: the scale experiment's star topology
// (aggregation router, per-server bottleneck links, host groups for
// sharded worlds) with every device described explicitly. Device i's host
// is named "d<i>"; its interfaces and access links are "wifi<i>" and
// "lte<i>", each with that device's drawn rate/delay/loss; Addrs[0] is
// the WiFi address the device dials from, Addrs[1] the LTE one.
func Star(devs []*Device, servers int, bottleneck netem.LinkConfig) scenario.Star {
	return scenario.Star{
		Clients:    len(devs),
		Servers:    servers,
		Bottleneck: bottleneck,
		Hosts: func(i int) scenario.StarHost {
			d := devs[i]
			return scenario.StarHost{
				Name:  fmt.Sprintf("d%d", d.Ordinal),
				Links: []scenario.StarLink{{Name: d.WiFiLink(), Cfg: d.WiFi}, {Name: d.LTELink(), Cfg: d.LTE}},
			}
		},
	}
}
