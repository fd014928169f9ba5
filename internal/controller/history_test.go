package controller

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/tcp"
)

// recLib is the one recording core.Lib of the controller tests, and its
// own core.Clock. It logs every command and every timer armed, in order;
// keeps every create with its done callback for a history to ack; and
// holds the timers and GetInfo requests for a history to fire and answer.
// What a policy's bound counts, it counts on its own side of the boundary.
type recLib struct {
	cbs     core.Callbacks
	now     time.Duration
	token   uint32   // the connection's: events carry it, commands must
	cmds    []string // since the last take
	foreign int      // how many of cmds carried another token
	timers  []*recTimer
	pending []recGetInfo // GetInfo requests not answered yet
	creates []recCreate  // every create, in send order
	acked   int          // how many of creates, from the first, are acked
	conn    int          // the connection the controller serves: each created that finds none open starts the next
	stale   int          // how many of cmds replies to an earlier connection's GetInfo issued
	// outOfOrder is set once an ack answered a create that was not the
	// oldest unacked one, against core.Lib's ordering.
	outOfOrder bool
	down       []netip.Addr // the local addresses a local_addr_down took
}

// recCreate is one create command as the library saw it. It is held from
// an errno-0 ack that finds its local address up until its pair's subflow
// comes up or closes, the address goes down, or the connection ends.
type recCreate struct {
	key  meshKey
	done func(errno uint32)
	held bool
}

type recTimer struct{ fn func() }

// recGetInfo is one GetInfo request and the connection it was asked in.
type recGetInfo struct {
	done func(*nlmsg.ConnInfo)
	conn int
}

func (l *recLib) cmd(token uint32, s string) {
	l.cmds = append(l.cmds, s)
	l.foreign += boolInt(token != l.token)
}

func (l *recLib) Register(cbs core.Callbacks, _ func(uint32)) { l.cbs = cbs }
func (l *recLib) CreateSubflow(token uint32, ft seg.FourTuple, _ bool, done func(uint32)) {
	l.cmd(token, "create "+ft.String())
	l.creates = append(l.creates, recCreate{key: keyOf(ft), done: done})
}
func (l *recLib) RemoveSubflow(token uint32, ft seg.FourTuple, _ func(uint32)) {
	l.cmd(token, "remove "+ft.String())
}
func (l *recLib) SetBackup(token uint32, ft seg.FourTuple, _ bool, _ func(uint32)) {
	l.cmd(token, "set-backup "+ft.String())
}
func (l *recLib) AnnounceAddr(token uint32, addr netip.Addr, _ uint16, _ func(uint32)) {
	l.cmd(token, "announce "+addr.String())
}
func (l *recLib) GetInfo(token uint32, done func(*nlmsg.ConnInfo)) {
	l.cmd(token, "get-info")
	l.pending = append(l.pending, recGetInfo{done, l.conn})
}
func (l *recLib) Clock() core.Clock  { return l }
func (l *recLib) Now() time.Duration { return l.now }
func (l *recLib) After(d time.Duration, fn func()) func() {
	l.cmds = append(l.cmds, "timer "+d.String())
	t := &recTimer{fn: fn}
	l.timers = append(l.timers, t)
	return func() { t.fn = nil }
}

// take returns the commands logged since the last take, how many of them
// carried another token and how many replies to an earlier connection's
// GetInfo issued.
func (l *recLib) take() (cmds []string, foreign, stale int) {
	cmds, foreign, stale = l.cmds, l.foreign, l.stale
	l.cmds, l.foreign, l.stale = nil, 0, 0
	return cmds, foreign, stale
}

// armed counts the timers neither cancelled nor fired.
func (l *recLib) armed() int {
	n := 0
	for _, t := range l.timers {
		n += boolInt(t.fn != nil)
	}
	return n
}

// fire runs every armed timer once; the timers they arm wait for the next
// call.
func (l *recLib) fire() {
	for _, t := range l.timers[:len(l.timers):len(l.timers)] {
		if fn := t.fn; fn != nil {
			t.fn = nil
			fn()
		}
	}
}

// answer replies to every pending GetInfo with info, counting what the
// replies to an earlier connection's requests issue.
func (l *recLib) answer(info *nlmsg.ConnInfo) {
	pending := l.pending
	l.pending = nil
	for _, p := range pending {
		before := len(l.cmds)
		p.done(info)
		if p.conn != l.conn {
			l.stale += len(l.cmds) - before
		}
	}
}

// deliver hands ev, under the connection's token, to the handler the
// controller registered for its kind, after ending the holds it ends.
func (l *recLib) deliver(ev nlmsg.Event) {
	ev.Token = l.token
	switch key := keyOf(ev.Tuple); ev.Kind {
	case nlmsg.EvCreated, nlmsg.EvClosed:
		l.release(func(meshKey) bool { return true })
	case nlmsg.EvSubEstablished, nlmsg.EvSubClosed:
		l.release(func(k meshKey) bool { return k == key })
	case nlmsg.EvLocalAddrUp:
		l.down = slices.DeleteFunc(l.down, func(a netip.Addr) bool { return a == ev.Addr })
	case nlmsg.EvLocalAddrDown:
		l.down = append(l.down, ev.Addr)
		l.release(func(k meshKey) bool { return k.local == ev.Addr })
	}
	l.cbs.Dispatch(&ev)
}

// release ends the hold of every create whose pair match accepts.
func (l *recLib) release(match func(meshKey) bool) {
	for i := range l.creates {
		if match(l.creates[i].key) {
			l.creates[i].held = false
		}
	}
}

// ack answers the oldest create not yet acked, if any.
func (l *recLib) ack(errno uint32) {
	if l.acked == len(l.creates) {
		return
	}
	c := &l.creates[l.acked]
	l.acked++
	c.held = errno == 0 && !slices.Contains(l.down, c.key.local)
	if c.done != nil {
		c.done(errno)
	}
}

// ackAgain calls the last create's done once more, errno 0: an ack in
// order when that create is the only one unacked, a duplicate when none
// is, and otherwise an ack out of order.
func (l *recLib) ackAgain() {
	n := len(l.creates)
	if n == 0 || l.creates[n-1].done == nil {
		return
	}
	switch l.acked {
	case n - 1:
		l.ack(0)
		return
	case n:
	default:
		l.outOfOrder = true
	}
	l.creates[n-1].done(0)
}

// A history is a byte string over the alphabet the five controllers see at
// the core.Lib boundary: the connection's events, and what the library side
// does — ack or fail a create, fire the armed timers, answer a get-info,
// let time pass, or Detach the controller. Each op is one byte, op&15 names
// it and op>>4 is its small argument; the subflow ops take one byte more,
// the subflow's 4-tuple (historyTuple).
const (
	hoCreated     = iota
	hoEstablished // the connection's established
	hoClosed
	hoSubUp     // + tuple: sub_established
	hoSubClosed // + tuple: sub_closed, errno histErrnos[arg%5]
	hoAddAddr   // add_addr of [histServer2, histRemote.Addr()][arg&1] on port [0, 8080][arg>>1&1]
	hoRemAddr   // rem_addr of address id arg
	hoTimeout   // + tuple: timeout, RTO [300ms, 4s][arg&1]
	hoLocalUp   // local_addr_up of [histL1, histL2][arg&1]
	hoLocalDown // local_addr_down of the same
	hoAck       // ack the oldest unacked create, errno histAckErrnos[arg%3]
	hoAckAgain  // the last create's done once more, errno 0 (recLib.ackAgain)
	hoFire      // every armed timer fires once
	hoAnswer    // answer every pending get-info: matureInfo(), or nil when arg is odd
	hoDetach
	hoTick // the clock moves (arg+1) × 250 ms
)

const histToken = 7 // the first connection's; each next one takes the next

var (
	histErrnos    = [...]uint32{0, 104, 110, 111, 32}
	histAckErrnos = [...]uint32{0, 101, 110}
	histOpNames   = [...]string{"created", "established", "closed", "sub_established", "sub_closed",
		"add_addr", "rem_addr", "timeout", "local_addr_up", "local_addr_down", "ack", "ack again",
		"fire", "answer", "detach", "tick"}
	histOpIdents = strings.Fields("hoCreated hoEstablished hoClosed hoSubUp hoSubClosed hoAddAddr " +
		"hoRemAddr hoTimeout hoLocalUp hoLocalDown hoAck hoAckAgain hoFire hoAnswer hoDetach hoTick")

	// The controllers manage two local addresses: histL1, the initial
	// subflow's, and histL2.
	histL1, histL2 = netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1")
	histRemote     = netip.MustParseAddrPort("10.9.0.1:80") // the initial subflow's destination
	histServer2    = netip.MustParseAddr("10.9.1.1")
	histInitial    = historyTuple(0) // 10.0.0.1:40000->10.9.0.1:80
)

// h spells one op of a history: h(hoSubUp, 0, htuple(1, 0, 5)) is
// sub_established of 10.1.0.1:40005->10.9.0.1:80.
func h(op, arg byte, tuple ...byte) []byte { return append([]byte{arg<<4 | op}, tuple...) }

func htuple(local, remote, port byte) byte { return port<<2 | remote<<1 | local }

// historyTuple decodes a tuple byte: the local address in bit 0, the
// remote in bit 1, the source port 40000 + the rest.
func historyTuple(a byte) seg.FourTuple {
	remote := [...]netip.AddrPort{histRemote, netip.AddrPortFrom(histServer2, 80)}[a>>1&1]
	return seg.FourTuple{SrcIP: [...]netip.Addr{histL1, histL2}[a&1], DstIP: remote.Addr(),
		SrcPort: 40000 + uint16(a>>2), DstPort: remote.Port()}
}

// historyOps splits a history into its ops, each one byte and, for the
// subflow ops, the tuple byte after it; a tuple the history cuts off reads
// as 0.
func historyOps(history []byte) [][]byte {
	var ops [][]byte
	for i := 0; i < len(history); i++ {
		op := history[i : i+1 : i+1]
		switch op[0] & 15 {
		case hoSubUp, hoSubClosed, hoTimeout:
			if i++; i < len(history) {
				op = history[i-1 : i+1]
			} else {
				op = append(op, 0)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// opName is how a failure names an op.
func opName(op []byte) string {
	name, arg := histOpNames[op[0]&15], op[0]>>4
	switch op[0] & 15 {
	case hoSubUp, hoTimeout:
		return fmt.Sprintf("%s(%v)", name, historyTuple(op[1]))
	case hoSubClosed:
		return fmt.Sprintf("%s(%v, errno %d)", name, historyTuple(op[1]), histErrnos[arg%5])
	case hoAddAddr:
		return fmt.Sprintf("%s(%v port %d)", name, [...]netip.Addr{histServer2, histRemote.Addr()}[arg&1], [...]uint16{0, 8080}[arg>>1&1])
	case hoLocalUp, hoLocalDown:
		return fmt.Sprintf("%s(%v)", name, [...]netip.Addr{histL1, histL2}[arg&1])
	case hoAck:
		return fmt.Sprintf("%s(errno %d)", name, histAckErrnos[arg%3])
	case hoRemAddr, hoAnswer, hoTick:
		return fmt.Sprintf("%s(%d)", name, arg)
	}
	return name
}

// matureInfo is a get-info reply with two established subflows, both older
// than refresh's minimum lifetime, and a block written but not acked.
func matureInfo() *nlmsg.ConnInfo {
	est := uint32(tcp.StateEstablished)
	return &nlmsg.ConnInfo{
		Token: histToken, AppNxt: 64 << 10,
		Subflows: []nlmsg.SubflowInfo{
			{Tuple: histInitial, State: est, PacingRate: 1 << 20},
			{Tuple: historyTuple(htuple(0, 0, 1)), State: est, PacingRate: 1 << 10},
		},
	}
}

// historyController is a policy a history drives, under its registry name
// and with its bound on outstanding creates.
type historyController struct {
	name string
	new  func() Controller
	// outstanding reports the policy's outstanding creates and its bound
	// on them, read off the library: the commands of the connection so
	// far, and the creates lib holds.
	outstanding func(lib *recLib, c connCommands) (n, bound int)
}

// connCommands counts the commands a controller issued since its current
// connection began, at a created that found none open; first is where the
// connection's creates begin in the library's list.
type connCommands struct{ creates, removes, first int }

var historyControllers = []historyController{
	// FullMesh: at most one create in flight per local × remote pair, so
	// at most |local| × |remotes|; a create is in flight until its ack, or
	// while it is held (recCreate). It matches acks to creates by order,
	// so the bound holds while the library keeps core.Lib's ordering;
	// after an ack out of order it is not checked.
	{"fullmesh", func() Controller { return NewFullMesh([]netip.Addr{histL2, histL1}) },
		func(lib *recLib, c connCommands) (int, int) {
			if lib.outOfOrder {
				return 0, 1
			}
			most := 0
			for _, a := range lib.creates[c.first:] {
				n := 0
				for j, b := range lib.creates[c.first:] {
					n += boolInt(a.key == b.key && (c.first+j >= lib.acked || b.held))
				}
				most = max(most, n)
			}
			return most, 1
		}},
	{"backup", func() Controller { return NewBackup(histL2) },
		func(_ *recLib, c connCommands) (int, int) { return c.creates, 1 }},
	{"stream", func() Controller { return NewStream(histL2) },
		func(_ *recLib, c connCommands) (int, int) { return c.creates, 1 }},
	// refresh keeps N subflows: the initial one and N-1 it created, each
	// replacement paired with a remove.
	{"refresh", func() Controller { return NewRefresh(3) },
		func(_ *recLib, c connCommands) (int, int) { return c.creates - c.removes, 3 - 1 }},
	{"ndiffports", func() Controller { return NewNDiffPorts(3) },
		func(_ *recLib, c connCommands) (int, int) { return c.creates, 3 - 1 }},
}

// HistoryFuzzed builds one of each controller the history rules drive, by
// name: TestEveryControllerIsHistoryFuzzed, outside the package, holds the
// registry to it.
func HistoryFuzzed() map[string]Controller {
	m := make(map[string]Controller, len(historyControllers))
	for _, c := range historyControllers {
		m[c.name] = c.new()
	}
	return m
}

// historyStep is what one op left behind, as the rules read it.
type historyStep struct {
	open    bool     // inside created … closed, and not detached
	issued  []string // the commands and timers the op produced
	foreign int      // how many of them carried another connection's token
	stale   int      // how many of them replies to an earlier connection's get-info issued
	armed   int      // timers armed after it
}

// historyRules are checked after every op of every history; each policy's
// bound on outstanding creates is checked with them, and checkHistory
// adds the rules over whole histories.
var historyRules = []struct {
	name   string
	broken func(s historyStep) bool
}{
	{"no command outside created … closed", func(s historyStep) bool { return !s.open && len(s.issued) > 0 }},
	{"no timer armed after closed or Detach", func(s historyStep) bool { return !s.open && s.armed > 0 }},
	{"every command carries its connection's token", func(s historyStep) bool { return s.foreign > 0 }},
	{"a reply to an earlier connection's request issues no command and arms no timer", func(s historyStep) bool { return s.stale > 0 }},
}

// historyRun is one controller instance, attached to its recLib, that
// histories drive op by op; broken is the first rule an op broke.
type historyRun struct {
	c      historyController
	ctl    Controller
	l      *recLib
	open   bool
	conn   connCommands
	played [][]byte // every op so far; nil where a connection was wound down
	broken string
}

func newHistoryRun(c historyController) *historyRun {
	r := &historyRun{c: c, ctl: c.new(), l: &recLib{token: histToken}}
	r.ctl.Attach(r.l)
	return r
}

// runHistory drives a fresh instance of c through history and returns the
// commands and timers each op issued and, when an op broke a rule of
// historyRules or c's bound, which and where. Events still arrive after
// Detach, as acks, get-info replies and timers do: Detach ends the
// connection as closed does.
func runHistory(c historyController, history []byte) (log [][]string, broken string) {
	r := newHistoryRun(c)
	return r.play(history), r.broken
}

func (r *historyRun) play(history []byte) [][]string {
	var log [][]string
	for _, op := range historyOps(history) {
		r.do(op)
		cmds, foreign, stale := r.l.take()
		r.played = append(r.played, op)
		r.check(cmds, foreign, stale)
		log = append(log, cmds)
	}
	return log
}

func (r *historyRun) do(op []byte) {
	l, arg := r.l, op[0]>>4
	var ft seg.FourTuple
	if len(op) == 2 {
		ft = historyTuple(op[1])
	}
	switch op[0] & 15 {
	case hoCreated:
		if !r.open {
			r.conn = connCommands{first: len(l.creates)}
			l.conn++
		}
		l.deliver(nlmsg.Event{Kind: nlmsg.EvCreated, Tuple: histInitial, HasTuple: true})
		r.open = true
	case hoEstablished:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvEstablished, Tuple: histInitial, HasTuple: true})
	case hoClosed:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvClosed})
		r.open = false
	case hoSubUp:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvSubEstablished, Tuple: ft, HasTuple: true})
	case hoSubClosed:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvSubClosed, Tuple: ft, HasTuple: true, Errno: histErrnos[arg%5]})
	case hoAddAddr:
		addr := [...]netip.Addr{histServer2, histRemote.Addr()}[arg&1]
		l.deliver(nlmsg.Event{Kind: nlmsg.EvAddAddr, AddrID: 1, Addr: addr, Port: [...]uint16{0, 8080}[arg>>1&1]})
	case hoRemAddr:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvRemAddr, AddrID: arg})
	case hoTimeout:
		rto := [...]time.Duration{300 * time.Millisecond, 4 * time.Second}[arg&1]
		l.deliver(nlmsg.Event{Kind: nlmsg.EvTimeout, Tuple: ft, HasTuple: true, RTO: rto})
	case hoLocalUp:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvLocalAddrUp, Addr: [...]netip.Addr{histL1, histL2}[arg&1]})
	case hoLocalDown:
		l.deliver(nlmsg.Event{Kind: nlmsg.EvLocalAddrDown, Addr: [...]netip.Addr{histL1, histL2}[arg&1]})
	case hoAck:
		l.ack(histAckErrnos[arg%3])
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
		r.ctl.Detach()
		r.open = false
		l.release(func(meshKey) bool { return true })
	case hoTick:
		l.now += time.Duration(arg+1) * 250 * time.Millisecond
	}
}

// check applies historyRules and c's bound to what the last op left.
func (r *historyRun) check(cmds []string, foreign, stale int) {
	for _, cmd := range cmds {
		r.conn.creates += boolInt(strings.HasPrefix(cmd, "create "))
		r.conn.removes += boolInt(strings.HasPrefix(cmd, "remove "))
	}
	if r.broken != "" {
		return
	}
	s := historyStep{open: r.open, issued: cmds, foreign: foreign, stale: stale, armed: r.l.armed()}
	for _, rule := range historyRules {
		if rule.broken(s) {
			r.broken = fmt.Sprintf("%s, broken by the last op (issued %q, %d timers armed)", rule.name, cmds, s.armed)
			break
		}
	}
	if n, bound := r.c.outstanding(r.l, r.conn); r.broken == "" && n > bound {
		r.broken = fmt.Sprintf("outstanding creates stay bounded, broken by the last op (%d outstanding, bound %d)", n, bound)
	}
	if r.broken != "" {
		r.broken = fmt.Sprintf("%s: %s of\n  %s", r.c.name, r.broken, opNames(r.played))
	}
}

// opNames names ops for a failure; nil is where a connection was wound
// down.
func opNames(ops [][]byte) string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = "wind the connection down"
		if op != nil {
			names[i] = opName(op)
		}
	}
	return strings.Join(names, ", ")
}

// windDown ends the connection as a library sees one out: closed, every
// create acked, every get-info answered (nil), both local addresses up —
// all checked, so the controller must issue nothing — and the next
// connection takes the next token.
func (r *historyRun) windDown() {
	r.do(h(hoClosed, 0))
	for r.l.acked < len(r.l.creates) {
		r.l.ack(0)
	}
	r.l.answer(nil)
	r.do(h(hoLocalUp, 0))
	r.do(h(hoLocalUp, 1))
	r.played = append(r.played, nil)
	r.check(r.l.take())
	r.l.token++
}

// checkHistory runs history through c against every rule: those of
// runHistory after each op, and three over the whole history — the same
// history always gives the same command log; doubling every created and
// established op leaves it as it was, since a repeated lifecycle event has
// no further effect; and the history replayed on the same instance as a
// second connection, under a new token, gives it again.
func checkHistory(c historyController, history []byte) (log [][]string, broken string) {
	r := newHistoryRun(c)
	log = r.play(history)
	r.windDown()
	second := r.play(history)
	first := slices.Concat(log...)
	switch {
	case r.broken != "":
		broken = r.broken
	case !slices.Equal(first, slices.Concat(second...)):
		broken = fmt.Sprintf("a second connection under a new token gives the same commands (it gave %q)",
			slices.Concat(second...))
	case !slices.Equal(first, slices.Concat(logOf(runHistory(c, history))...)):
		broken = "one history, one command log"
	case !slices.Equal(first, slices.Concat(logOf(runHistory(c, doubleLifecycle(history)))...)):
		broken = "doubling every created and established leaves the command log unchanged"
	default:
		return log, ""
	}
	if r.broken == "" {
		broken = fmt.Sprintf("%s: %s, broken by\n  %s", c.name, broken, opNames(historyOps(history)))
	}
	return log, broken + "\nas a row:\n" + spell(history, log)
}

func logOf(log [][]string, _ string) [][]string { return log }

// spell writes history as the steps of a scripted row, each op next to the
// commands it issued in log: ready to paste into fullMeshHistories.
func spell(history []byte, log [][]string) string {
	var b strings.Builder
	for i, op := range historyOps(history) {
		fmt.Fprintf(&b, "{h(%s, %d", histOpIdents[op[0]&15], op[0]>>4)
		if len(op) == 2 {
			fmt.Fprintf(&b, ", htuple(%d, %d, %d)", op[1]&1, op[1]>>1&1, op[1]>>2)
		}
		want := "nil"
		if i < len(log) && len(log[i]) > 0 {
			want = fmt.Sprintf("%#v", log[i])
		}
		fmt.Fprintf(&b, "), %s}, // %s\n", want, opName(op))
	}
	return b.String()
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
	var out []byte
	for _, op := range historyOps(history) {
		if k := op[0] & 15; k == hoCreated || k == hoEstablished {
			out = append(out, op...)
		}
		out = append(out, op...)
	}
	return out
}

// FuzzControllerHistory drives all five controllers through generated
// histories against every rule of checkHistory. The seeds are the
// scripted rows of fullMeshHistories and everyPolicyHistories.
func FuzzControllerHistory(f *testing.F) {
	for _, row := range fullMeshHistories() {
		f.Add(row.history())
	}
	for _, row := range everyPolicyHistories {
		f.Add(row.history)
	}
	f.Fuzz(func(t *testing.T, history []byte) {
		for _, c := range historyControllers {
			if _, broken := checkHistory(c, history); broken != "" {
				t.Error(broken)
			}
		}
	})
}

// TestEnumerateHistories checks every history of up to four ops over a
// sixteen-op alphabet, for every policy against every rule of
// checkHistory. Histories are walked breadth first, so a policy's first
// failure is one of its shortest; it is printed as a row to paste.
// Longer histories are make fuzz's.
func TestEnumerateHistories(t *testing.T) {
	const depth = 4
	alphabet := [][]byte{
		h(hoCreated, 0), h(hoEstablished, 0), h(hoClosed, 0),
		h(hoSubUp, 0, htuple(0, 0, 1)), h(hoSubUp, 0, htuple(1, 0, 1)),
		h(hoSubClosed, 1, htuple(0, 0, 1)), h(hoSubClosed, 2, htuple(1, 0, 1)), // ECONNRESET, ETIMEDOUT
		h(hoTimeout, 1, htuple(0, 0, 0)), h(hoLocalUp, 1), h(hoLocalDown, 1), h(hoAddAddr, 0),
		h(hoAck, 0), h(hoAck, 2), h(hoFire, 0), h(hoAnswer, 0), h(hoDetach, 0),
	}
	for _, c := range historyControllers {
		checked, acting, broken := 0, 0, ""
		var history []byte
		for k, n := 1, len(alphabet); k <= depth && broken == ""; k, n = k+1, n*len(alphabet) {
			for i := 0; i < n && broken == ""; i++ {
				history = history[:0]
				for d := n / len(alphabet); d > 0; d /= len(alphabet) { // the first op the slowest
					history = append(history, alphabet[i/d%len(alphabet)]...)
				}
				var log [][]string
				log, broken = checkHistory(c, history)
				checked++
				acting += boolInt(slices.ContainsFunc(log, func(cmds []string) bool { return len(cmds) > 0 }))
			}
		}
		t.Logf("%s: %d histories of up to %d ops checked, %d of them issued commands", c.name, checked, depth, acting)
		switch {
		case broken != "":
			t.Error(broken)
		case acting == 0:
			t.Errorf("%s: no history made it act: the rules check nothing", c.name)
		}
	}
}
