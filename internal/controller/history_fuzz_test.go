package controller

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/nlmsg"
)

// A history is a byte string over the alphabet the five controllers see at
// the core.Lib boundary: the connection's events, and what the library side
// does — ack or fail a create, fire the armed timers, answer a get-info,
// let time pass, or Detach the controller. Each op is one byte, op&15 names
// it and op>>4 is its small argument; the subflow ops take one byte more,
// the subflow's 4-tuple.
const (
	hoCreated     = iota
	hoEstablished // the connection's established
	hoClosed
	hoSubUp     // + tuple: sub_established
	hoSubClosed // + tuple: sub_closed, errno histErrnos[arg%5]
	hoAddAddr   // add_addr of [histServer2, detachServer][arg&1] on port [0, 8080][arg>>1&1]
	hoRemAddr   // rem_addr of address id arg
	hoTimeout   // + tuple: timeout, RTO [300ms, 4s][arg&1]
	hoLocalUp   // local_addr_up of [detachLocal, detachSecond][arg&1]
	hoLocalDown // local_addr_down of the same
	hoAck       // ack the oldest create, errno histAckErrnos[arg%3]
	hoAckAgain  // the last create's done once more, errno 0
	hoFire      // every armed timer fires once
	hoAnswer    // answer every pending get-info: matureInfo(), or nil when arg is odd
	hoDetach
	hoTick // the clock moves (arg+1) × 250 ms
)

var (
	histErrnos    = [...]uint32{0, 104, 110, 111, 32}
	histAckErrnos = [...]uint32{0, 101, 110}
	histOpNames   = [...]string{"created", "established", "closed", "sub_established", "sub_closed",
		"add_addr", "rem_addr", "timeout", "local_addr_up", "local_addr_down", "ack", "ack again",
		"fire", "answer", "detach", "tick"}
)

// hop and htuple spell history bytes: hop(hoSubUp, 0), htuple(1, 0, 5) is
// sub_established of 10.1.0.1:40005->10.9.0.1:80.
func hop(op, arg byte) byte { return arg<<4 | op }

func htuple(local, remote, port byte) byte { return port<<2 | remote<<1 | local }

// historyTuple decodes a tuple byte: the local address in bit 0, the
// remote in bit 1, the source port 40000 + the rest.
func historyTuple(a byte) (netip.Addr, uint16, netip.AddrPort) {
	local := [...]netip.Addr{detachLocal, detachSecond}[a&1]
	remote := [...]netip.AddrPort{histRemote, netip.AddrPortFrom(histServer2, 80)}[a>>1&1]
	return local, 40000 + uint16(a>>2), remote
}

// historyControllers are the policies a history drives, configured as the
// scripted tests configure them.
var historyControllers = []struct {
	name string
	new  func() Controller
}{
	{"fullmesh", func() Controller { return NewFullMesh([]netip.Addr{detachSecond, detachLocal}) }},
	{"backup", func() Controller { return NewBackup(detachSecond) }},
	{"stream", func() Controller { return NewStream(detachSecond) }},
	{"refresh", func() Controller { return NewRefresh(3) }},
	{"ndiffports", func() Controller { return NewNDiffPorts(3) }},
}

// historyStep is what one op left behind, as the rules read it.
type historyStep struct {
	open   bool     // inside created … closed, and not detached
	issued []string // the commands and timers the op produced
	armed  int      // timers armed after it
}

// historyRules are checked after every op of every history.
var historyRules = []struct {
	name   string
	broken func(s historyStep) bool
}{
	{"no command outside created … closed", func(s historyStep) bool { return !s.open && len(s.issued) > 0 }},
	{"no timer armed after closed or Detach", func(s historyStep) bool { return !s.open && s.armed > 0 }},
}

// runHistory drives a fresh ctl through history and returns its command
// log (commands and armed timers, in order), failing t on the first op
// after which a rule is broken. After Detach the library stops delivering
// events, as smapp's token table does for a replaced policy, but acks,
// get-info replies and timers still arrive.
func runHistory(t *testing.T, ctl Controller, history []byte) []string {
	t.Helper()
	l := &histLib{}
	ctl.Attach(l)
	var log, done []string
	open, detached := false, false
	for i := 0; i < len(history); i++ {
		op, arg := history[i]&15, history[i]>>4
		tuple := func() (netip.Addr, uint16, netip.AddrPort) {
			var a byte
			if i+1 < len(history) {
				i++
				a = history[i]
			}
			return historyTuple(a)
		}
		ev := func(step func(*histLib)) {
			if !detached {
				step(l)
			}
		}
		name := histOpNames[op]
		switch op {
		case hoCreated:
			ev(hCreated())
			open = !detached
		case hoEstablished:
			ev(hEstablished())
		case hoClosed:
			ev(hClosed())
			open = false
		case hoSubUp:
			local, port, remote := tuple()
			name = fmt.Sprintf("%s %v:%d->%v", name, local, port, remote)
			ev(hSubUp(local, port, remote))
		case hoSubClosed:
			local, port, remote := tuple()
			errno := histErrnos[arg%5]
			name = fmt.Sprintf("%s %v:%d->%v errno %d", name, local, port, remote, errno)
			ev(hSubClosed(local, port, remote, errno))
		case hoAddAddr:
			addr := [...]netip.Addr{histServer2, detachServer}[arg&1]
			port := [...]uint16{0, 8080}[arg>>1&1]
			name = fmt.Sprintf("%s %v port %d", name, addr, port)
			ev(hAddAddr(addr, port))
		case hoRemAddr:
			name = fmt.Sprintf("%s id %d", name, arg)
			ev(func(l *histLib) { l.deliver(nlmsg.Event{Kind: nlmsg.EvRemAddr, AddrID: arg}) })
		case hoTimeout:
			local, port, remote := tuple()
			rto := [...]time.Duration{300 * time.Millisecond, 4 * time.Second}[arg&1]
			name = fmt.Sprintf("%s %v:%d->%v rto %v", name, local, port, remote, rto)
			ev(func(l *histLib) {
				l.deliver(nlmsg.Event{Kind: nlmsg.EvTimeout, Tuple: histTuple(local, port, remote), HasTuple: true, RTO: rto})
			})
		case hoLocalUp, hoLocalDown:
			addr := [...]netip.Addr{detachLocal, detachSecond}[arg&1]
			name = fmt.Sprintf("%s %v", name, addr)
			ev(hLocal(addr, op == hoLocalUp))
		case hoAck:
			errno := histAckErrnos[arg%3]
			name = fmt.Sprintf("%s errno %d", name, errno)
			if len(l.acks) > 0 {
				if ack := l.acks[0]; ack != nil {
					l.ack(errno)
				} else {
					l.acks = l.acks[1:]
				}
			}
		case hoAckAgain:
			if l.done != nil {
				l.done(0)
			}
		case hoFire:
			l.fire()
		case hoAnswer:
			info := matureInfo()
			if arg&1 == 1 {
				info = nil
			}
			l.answer(info)
		case hoDetach:
			ctl.Detach()
			open, detached = false, true
		case hoTick:
			l.now += time.Duration(arg+1) * 250 * time.Millisecond
		}
		done = append(done, name)
		s := historyStep{open: open, issued: l.cmds, armed: l.armed()}
		for _, r := range historyRules {
			if r.broken(s) {
				t.Fatalf("%s: %s, broken by the last op of\n  %q\n(issued %q, %d timers armed)",
					ctl.Name(), r.name, done, s.issued, s.armed)
			}
		}
		log = append(log, l.cmds...)
		l.cmds = nil
	}
	return log
}

// FuzzControllerHistory drives all five controllers through generated
// histories and checks the rules of historyRules after every op, and that
// the same history always gives the same command log. The seeds are the
// byte spellings of TestFullMeshCommandLog's histories.
func FuzzControllerHistory(f *testing.F) {
	for _, h := range fullMeshHistories() {
		f.Add(h.bytes)
	}
	f.Fuzz(func(t *testing.T, history []byte) {
		for _, c := range historyControllers {
			first := runHistory(t, c.new(), history)
			if again := runHistory(t, c.new(), history); !slices.Equal(first, again) {
				t.Fatalf("%s: one history, two command logs:\n%q\n%q", c.name, first, again)
			}
		}
	})
}
