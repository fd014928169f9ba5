// Command smappctl is a subflow controller in its own OS process, the way
// the paper intends: it attaches to smappd's Unix socket and applies any
// registered policy over real Netlink-format messages on the wall clock
// (internal/smappctl).
//
// Usage:
//
//	smappctl -sock /tmp/smapp.sock -policy backup
package main

import (
	"os"

	"repro/internal/smappctl"
)

func main() { os.Exit(smappctl.Run(os.Args[1:], os.Stdout, os.Stderr)) }
