package controller

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
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
	hoAck       // ack the oldest unacked create, errno histAckErrnos[arg%3]
	hoAckAgain  // the last create's done once more, errno 0 (histLib.ackAgain)
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

// historyController is a policy a history drives, under its registry name
// and configured as the scripted tests configure it, with its bound on
// outstanding creates.
type historyController struct {
	name string
	new  func() Controller
	// outstanding reports the policy's outstanding creates and its bound
	// on them, read off the library: the commands of the connection so
	// far, and the creates lib holds.
	outstanding func(lib *histLib, c connCommands) (n, bound int)
}

// connCommands counts the commands a controller issued since its current
// connection began, at a created that found none open; first is where the
// connection's creates begin in the library's list.
type connCommands struct{ creates, removes, first int }

var historyControllers = []historyController{
	// FullMesh: at most one create awaiting its ack per local × remote
	// pair, so at most |local| × |remotes|. It matches acks to creates by
	// order, so the bound holds while the library keeps core.Lib's
	// ordering; after an ack out of order it is not checked.
	{"fullmesh", func() Controller { return NewFullMesh([]netip.Addr{detachSecond, detachLocal}) },
		func(lib *histLib, c connCommands) (int, int) {
			if lib.outOfOrder {
				return 0, 1
			}
			unacked := lib.creates[max(c.first, lib.acked):]
			most := 0
			for _, a := range unacked {
				n := 0
				for _, b := range unacked {
					n += boolInt(a.key == b.key)
				}
				most = max(most, n)
			}
			return most, 1
		}},
	{"backup", func() Controller { return NewBackup(detachSecond) },
		func(_ *histLib, c connCommands) (int, int) { return c.creates, 1 }},
	{"stream", func() Controller { return NewStream(detachSecond) },
		func(_ *histLib, c connCommands) (int, int) { return c.creates, 1 }},
	// refresh keeps N subflows: the initial one and N-1 it created, each
	// replacement paired with a remove.
	{"refresh", func() Controller { return NewRefresh(3) },
		func(_ *histLib, c connCommands) (int, int) { return c.creates - c.removes, 3 - 1 }},
	{"ndiffports", func() Controller { return NewNDiffPorts(3) },
		func(_ *histLib, c connCommands) (int, int) { return c.creates, 3 - 1 }},
}

// HistoryFuzzed builds one of each controller FuzzControllerHistory
// drives, by name: TestEveryControllerIsHistoryFuzzed, outside the
// package, holds the registry to it.
func HistoryFuzzed() map[string]Controller {
	m := make(map[string]Controller, len(historyControllers))
	for _, c := range historyControllers {
		m[c.name] = c.new()
	}
	return m
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

// runHistory drives a fresh instance of c through history and returns its
// command log (commands and armed timers, in order) and, when an op broke
// a rule of historyRules or c's bound, which and where. After Detach the
// library stops delivering events, as smapp's token table does for a
// replaced policy, but acks, get-info replies and timers still arrive.
func runHistory(c historyController, history []byte) (log []string, broken string) {
	ctl := c.new()
	l := &histLib{}
	ctl.Attach(l)
	var done []string
	var conn connCommands
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
			if !open {
				conn = connCommands{first: len(l.creates)}
			}
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
			l.ack(errno)
		case hoAckAgain:
			l.ackAgain()
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
		for _, cmd := range l.cmds {
			conn.creates += boolInt(strings.HasPrefix(cmd, "create "))
			conn.removes += boolInt(strings.HasPrefix(cmd, "remove "))
		}
		s := historyStep{open: open, issued: l.cmds, armed: l.armed()}
		for _, r := range historyRules {
			if broken == "" && r.broken(s) {
				broken = fmt.Sprintf("%s: %s, broken by the last op of\n  %q\n(issued %q, %d timers armed)",
					c.name, r.name, done, s.issued, s.armed)
			}
		}
		if n, bound := c.outstanding(l, conn); broken == "" && n > bound {
			broken = fmt.Sprintf("%s: outstanding creates stay bounded, broken by the last op of\n  %q\n(%d outstanding, bound %d)",
				c.name, done, n, bound)
		}
		log = append(log, l.cmds...)
		l.cmds = nil
	}
	return log, broken
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// doubleLifecycle spells history with every created and established op
// twice in a row.
func doubleLifecycle(history []byte) []byte {
	out := make([]byte, 0, 2*len(history))
	for i := 0; i < len(history); i++ {
		switch op := history[i] & 15; op {
		case hoCreated, hoEstablished:
			out = append(out, history[i])
		case hoSubUp, hoSubClosed, hoTimeout:
			if i+1 < len(history) {
				out = append(out, history[i])
				i++
			}
		}
		out = append(out, history[i])
	}
	return out
}

// FuzzControllerHistory drives all five controllers through generated
// histories and checks the rules of historyRules and each policy's bound
// on outstanding creates after every op; that the same history always
// gives the same command log; and that doubling every created and
// established op of a history leaves the log as it was, since a repeated
// lifecycle event has no further effect. The seeds are the byte spellings
// of TestFullMeshCommandLog's histories.
func FuzzControllerHistory(f *testing.F) {
	for _, h := range fullMeshHistories() {
		f.Add(h.bytes)
	}
	f.Fuzz(func(t *testing.T, history []byte) {
		doubled := doubleLifecycle(history)
		for _, c := range historyControllers {
			first, broken := runHistory(c, history)
			if broken != "" {
				t.Error(broken)
			}
			if again, _ := runHistory(c, history); !slices.Equal(first, again) {
				t.Errorf("%s: one history, two command logs:\n%q\n%q", c.name, first, again)
			}
			if twice, _ := runHistory(c, doubled); !slices.Equal(first, twice) {
				t.Errorf("%s: doubling every created and established changes the command log:\n%q\n%q",
					c.name, first, twice)
			}
		}
	})
}
