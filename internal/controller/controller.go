// Package controller implements the paper's sample subflow controllers
// (§4) — userspace policies written against the PM library (core.Lib),
// never touching Netlink bytes or kernel state directly. Each is a small
// policy over one connection's events:
//
//   - FullMesh (§4.1): a userspace reimplementation of the kernel
//     full-mesh path manager, extended with error-aware re-establishment of
//     failed subflows for long-lived connections behind NATs/firewalls
//     (≈800 LoC of C in the paper);
//   - Backup (§4.2): break-before-make backup handling — the backup
//     subflow is created only when the primary's retransmission timer
//     exceeds a threshold;
//   - Stream (§4.3): block-streaming support — probes transfer progress
//     mid-block via snd_una and opens/kills subflows to keep block
//     latency bounded;
//   - Refresh (§4.4): ECMP exploitation — opens n subflows on random
//     source ports and periodically replaces the one with the lowest
//     pacing_rate (230 LoC of C in the paper);
//   - NDiffPorts (§4.5): a userspace clone of the kernel ndiffports
//     manager, used to measure the Netlink crossing cost of Fig. 3.
//
// The connection's lifecycle — which events reach the policy, the token
// and remote learned at created, the one re-armable timer — is written
// once, in the session every controller embeds; a policy holds only its
// decisions and their state.
package controller

import (
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
)

// Controller is a subflow-management policy over ONE connection: a state
// machine its created event (re)starts and its closed event ends, so an
// instance may serve connections one after another but never two at once,
// and ignores events outside that span. Which connection an event belongs
// to is settled before it gets here (internal/smapp's token table runs one
// instance per connection); commands carry the token learned at created.
//
// Attach registers the event callbacks on lib. Detach cancels every
// pending timer and ends the connection; after Detach the controller takes
// no further actions, so a live connection can be handed to a replacement
// policy (smapp.Stack.SwitchPolicy).
type Controller interface {
	Attach(lib core.Lib)
	Detach()
}

// session is the lifecycle of the one connection a controller manages,
// the one place the rule of Controller lives: every controller embeds it
// and passes each event through admit before its policy sees it. Its
// fields are ordered to pack: a fleet holds one per device.
type session struct {
	lib core.Lib
	// remote and port are the initial subflow's destination, where the
	// policies' new subflows go.
	remote netip.Addr
	// stop cancels the armed timer (refresh's tick, stream's probe); nil
	// while none is armed, so the timer's callback clears it first.
	stop        func()
	token       uint32
	port        uint16
	open        bool // from created to closed or Detach
	established bool
}

// admit applies the lifecycle rule to ev and reports whether the policy
// sees it:
//   - created starts a connection, ending any previous one;
//   - a created or established repeated for the open connection is
//     dropped, so a duplicated event has no further effect;
//   - closed ends the connection;
//   - local_addr_up and local_addr_down always pass: FullMesh keeps its
//     local set current across connections;
//   - every other event passes only while the connection is open.
func (s *session) admit(ev *nlmsg.Event) bool {
	switch ev.Kind {
	case nlmsg.EvCreated:
		if s.open && ev.Token == s.token {
			return false
		}
		s.end()
		s.open, s.token = true, ev.Token
		s.remote, s.port = ev.Tuple.DstIP, ev.Tuple.DstPort
	case nlmsg.EvEstablished:
		if !s.open || s.established {
			return false
		}
		s.established = true
	case nlmsg.EvClosed:
		open := s.open
		s.end()
		return open
	case nlmsg.EvLocalAddrUp, nlmsg.EvLocalAddrDown:
	default:
		return s.open
	}
	return true
}

// end ends the connection and cancels the armed timer.
func (s *session) end() {
	s.open, s.established = false, false
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// Detach implements Controller for every policy with nothing of its own
// to cancel. An in-flight reply sees the connection ended and does
// nothing.
func (s *session) Detach() { s.end() }

// arm schedules fn after d in place of any armed timer, which end cancels;
// fn begins with s.stop = nil, so a timer that has run is never cancelled.
func (s *session) arm(d time.Duration, fn func()) {
	if s.stop != nil {
		s.stop()
	}
	s.stop = s.lib.Clock().After(d, fn)
}

// dest is the initial subflow's destination.
func (s *session) dest() netip.AddrPort { return netip.AddrPortFrom(s.remote, s.port) }

// join asks for a subflow of the connection from local to remote, on a
// source port the kernel picks (a fresh random one, which is what
// re-rolls refresh's ECMP dice).
func (s *session) join(local netip.Addr, remote netip.AddrPort, done func(errno uint32)) {
	s.lib.CreateSubflow(s.token, seg.FourTuple{
		SrcIP: local, DstIP: remote.Addr(), DstPort: remote.Port(),
	}, false, done)
}
