// Command smappctl is a subflow controller running as a separate OS
// process, the way the paper intends: it attaches to smappd's Unix socket
// through the smapp controller stack, picks a policy from the same
// registry the in-process facade uses, and applies it over real
// Netlink-format messages on the wall clock.
//
// Usage:
//
//	smappctl -sock /tmp/smapp.sock -policy backup
package main

import (
	"flag"
	"log"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/smapp"
	"repro/internal/topo"
)

func main() {
	sock := flag.String("sock", "/tmp/smapp.sock", "smappd's unix socket")
	policy := flag.String("policy", "backup", "subflow controller policy: "+
		strings.Join(smapp.Controllers.Names(), ", "))
	threshold := flag.Duration("threshold", time.Second, "RTO threshold (backup/stream policies)")
	flag.Parse()

	conn, err := net.Dial("unix", *sock)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	log.Printf("smappctl: attached to %s", *sock)

	var mu sync.Mutex
	tr := &core.Transport{
		ToUser:   &dispatchPipe{},          // filled below by the library
		ToKernel: core.NewSocketPipe(conn), // commands out over the socket
	}
	cs := smapp.NewControllerStack(tr, smapp.NewWallClock(&mu), 1)

	// Any registered policy, unchanged from the simulation — same code,
	// different transport and clock; each connection smappd opens gets its
	// own instance. The smappd world is the canned two-path topology, so
	// its addresses parameterise the controller.
	if err := cs.Use(*policy, smapp.ControllerConfig{
		Addrs:     []netip.Addr{topo.ClientAddr1, topo.ClientAddr2},
		Threshold: *threshold,
	}); err != nil {
		log.Fatalf("smappctl: %v", err)
	}
	log.Printf("smappctl: policy %q registered", *policy)

	// Event pump: socket → library, serialised with timer callbacks.
	err = core.ReadMessages(conn, func(b []byte) {
		mu.Lock()
		defer mu.Unlock()
		logEvent(log.Default(), b)
		cs.Lib.OnMessage(b)
	})
	log.Printf("smappctl: connection closed (%v); events=%d commands=%d",
		err, cs.Lib.Stats.EventsReceived, cs.Lib.Stats.CommandsSent)
}

// dispatchPipe is the controller-side ToUser endpoint: the library installs
// its receiver here, and the socket pump calls lib.OnMessage directly, so
// Send is never used on this half.
type dispatchPipe struct{ recv func([]byte) }

func (p *dispatchPipe) Send(b []byte)               {}
func (p *dispatchPipe) SetReceiver(fn func([]byte)) { p.recv = fn }

// logEvent writes one line per event frame to lg. Command replies are the
// library's business and are skipped; a frame that does not parse is
// reported, since the library only counts it.
func logEvent(lg *log.Logger, b []byte) {
	var m nlmsg.Message
	if _, err := nlmsg.UnmarshalInto(b, &m); err != nil {
		lg.Printf("malformed frame (%d bytes): %v", len(b), err)
		return
	}
	if m.Cmd >= nlmsg.ReplyAck {
		return
	}
	var ev nlmsg.Event
	if err := nlmsg.ParseEventInto(&m, &ev); err != nil {
		lg.Printf("malformed %v event: %v", m.Cmd, err)
		return
	}
	switch ev.Kind {
	case nlmsg.EvTimeout:
		lg.Printf("event %-14s token=%08x rto=%v backoffs=%d", ev.Kind, ev.Token, ev.RTO, ev.Backoffs)
	case nlmsg.EvSubClosed:
		lg.Printf("event %-14s token=%08x tuple=%v errno=%d", ev.Kind, ev.Token, ev.Tuple, ev.Errno)
	default:
		lg.Printf("event %-14s token=%08x", ev.Kind, ev.Token)
	}
}
