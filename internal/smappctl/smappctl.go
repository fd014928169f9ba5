// Package smappctl is the body of the smappctl command, the controller
// half of the paper's split deployment. It is a package so that one test
// can run it beside smappd in a single process.
package smappctl

import (
	"flag"
	"io"
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

// Run executes one smappctl command line and returns its exit status: 0
// once smappd closes the socket, 1 when the socket or the policy cannot be
// set up, 2 on a bad flag. It logs to stderr only, ending with the counts.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smappctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sock := fs.String("sock", "/tmp/smapp.sock", "smappd's unix socket")
	policy := fs.String("policy", "backup", "subflow controller policy: "+
		strings.Join(smapp.Controllers.Names(), ", "))
	threshold := fs.Duration("threshold", time.Second, "RTO threshold (backup/stream policies)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	lg := log.New(stderr, "", log.LstdFlags)

	conn, err := net.Dial("unix", *sock)
	if err != nil {
		lg.Printf("dial: %v", err)
		return 1
	}
	defer conn.Close()
	lg.Printf("smappctl: attached to %s", *sock)

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
		lg.Printf("smappctl: %v", err)
		return 1
	}
	lg.Printf("smappctl: policy %q registered", *policy)

	// Event pump: socket → library, serialised with timer callbacks.
	err = core.ReadMessages(conn, func(b []byte) {
		mu.Lock()
		defer mu.Unlock()
		logEvent(lg, b)
		cs.Lib.OnMessage(b)
	})
	mu.Lock()
	defer mu.Unlock()
	lg.Printf("smappctl: connection closed (%v); events=%d commands=%d",
		err, cs.Lib.Stats.EventsReceived, cs.Lib.Stats.CommandsSent)
	return 0
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
