// Quickstart: build a two-path world, bring up the paper's smart-socket
// facade, transfer a file over both paths, and print what happened. The
// whole client-side control plane — Netlink transport, kernel-side PM,
// userspace library, and the §4.1 full-mesh policy — is two statements:
// smapp.New for the stack and Stack.Dial naming the policy.
package main

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/topo"
)

func main() {
	// A multihomed client: 20 Mbps / 10 ms and 10 Mbps / 30 ms paths.
	world := sim.New(42)
	n := topo.NewTwoPath(world,
		netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond},
		netem.LinkConfig{RateBps: 10e6, Delay: 30 * time.Millisecond},
	)

	// Server: a plain stack accepting with no policy of its own.
	server := smapp.New(n.Server, smapp.Config{})
	sink := app.NewSink(world, 30<<20, func() {
		fmt.Printf("t=%v  transfer complete\n", world.Now())
	})
	server.Listen(80, "", smapp.ControllerConfig{}, func(c *mptcp.Connection) {
		c.SetCallbacks(sink.Callbacks())
	})

	// Client: stack + dial with the full-mesh policy by name. That's the
	// entire §3 architecture — transport, Netlink PM, library, controller.
	src := app.NewSource(world, 30<<20, false)
	client := smapp.New(n.Client, smapp.Config{})
	conn, err := client.Dial(n.ClientAddrs[0], n.ServerAddr, 80,
		"fullmesh", smapp.ControllerConfig{}, src.Callbacks())
	if err != nil {
		panic(err)
	}

	world.RunUntil(60 * sim.Second)

	// One snapshot: application-side stats and the bound policy.
	info := client.Info(conn)
	fmt.Printf("\nconnection token %08x under policy %q used %d subflows:\n",
		info.Token, info.Policy, len(info.Subflows))
	for i, sfInfo := range info.Subflows {
		fmt.Printf("  subflow %d %v: sent %.1f MB, srtt %v (cwnd %dB, pacing %.1f Mbps)\n",
			i, sfInfo.Tuple, float64(sfInfo.Stats.BytesSent)/1e6, sfInfo.SRTT.Round(time.Millisecond),
			sfInfo.Cwnd, sfInfo.PacingRate*8/1e6)
	}
	fmt.Printf("received %.1f MB in %.1fs — both paths were used (aggregate > any single path)\n",
		float64(sink.Received)/1e6, sink.CompletedAt.Seconds())
}
