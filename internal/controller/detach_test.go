package controller

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/tcp"
)

// recLib is a core.Lib, and its own core.Clock, that records every command
// a controller sends and holds its timers and GetInfo requests for the
// test to fire and answer.
type recLib struct {
	cbs     core.Callbacks
	now     time.Duration
	cmds    []string
	timers  []*recTimer
	pending []func(*nlmsg.ConnInfo) // GetInfo requests not answered yet
}

type recTimer struct{ fn func() }

func (l *recLib) Register(cbs core.Callbacks, _ func(uint32)) { l.cbs = cbs }
func (l *recLib) CreateSubflow(_ uint32, ft seg.FourTuple, _ bool, _ func(uint32)) {
	l.cmds = append(l.cmds, "create "+ft.String())
}
func (l *recLib) RemoveSubflow(_ uint32, ft seg.FourTuple, _ func(uint32)) {
	l.cmds = append(l.cmds, "remove "+ft.String())
}
func (l *recLib) SetBackup(_ uint32, ft seg.FourTuple, _ bool, _ func(uint32)) {
	l.cmds = append(l.cmds, "set-backup "+ft.String())
}
func (l *recLib) AnnounceAddr(_ uint32, addr netip.Addr, _ uint16, _ func(uint32)) {
	l.cmds = append(l.cmds, "announce "+addr.String())
}
func (l *recLib) GetInfo(_ uint32, done func(*nlmsg.ConnInfo)) {
	l.cmds = append(l.cmds, "get-info")
	l.pending = append(l.pending, done)
}
func (l *recLib) Clock() core.Clock  { return l }
func (l *recLib) Now() time.Duration { return l.now }
func (l *recLib) After(_ time.Duration, fn func()) func() {
	t := &recTimer{fn: fn}
	l.timers = append(l.timers, t)
	return func() { t.fn = nil }
}

// armed counts the timers neither cancelled nor fired.
func (l *recLib) armed() int {
	n := 0
	for _, t := range l.timers {
		if t.fn != nil {
			n++
		}
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

// answer replies to every pending GetInfo with info.
func (l *recLib) answer(info *nlmsg.ConnInfo) {
	pending := l.pending
	l.pending = nil
	for _, done := range pending {
		done(info)
	}
}

// deliver hands ev to the handler the controller registered for its kind.
func (l *recLib) deliver(ev nlmsg.Event) {
	ev.Token = detachToken
	fn := map[nlmsg.Cmd]func(*nlmsg.Event){
		nlmsg.EvCreated:        l.cbs.Created,
		nlmsg.EvEstablished:    l.cbs.Established,
		nlmsg.EvClosed:         l.cbs.Closed,
		nlmsg.EvSubEstablished: l.cbs.SubEstablished,
		nlmsg.EvSubClosed:      l.cbs.SubClosed,
		nlmsg.EvAddAddr:        l.cbs.AddAddr,
		nlmsg.EvRemAddr:        l.cbs.RemAddr,
		nlmsg.EvTimeout:        l.cbs.Timeout,
		nlmsg.EvLocalAddrUp:    l.cbs.LocalAddrUp,
		nlmsg.EvLocalAddrDown:  l.cbs.LocalAddrDown,
	}[ev.Kind]
	if fn != nil {
		fn(&ev)
	}
}

const detachToken = 7

var (
	detachLocal  = netip.MustParseAddr("10.0.0.1")
	detachSecond = netip.MustParseAddr("10.1.0.1")
	detachServer = netip.MustParseAddr("10.9.0.1")
)

func detachTuple(port uint16) seg.FourTuple {
	return seg.FourTuple{SrcIP: detachLocal, DstIP: detachServer, SrcPort: port, DstPort: 80}
}

// matureInfo is a get-info reply with two established subflows, both older
// than refresh's minimum lifetime, and a block written but not acked.
func matureInfo() *nlmsg.ConnInfo {
	est := uint32(tcp.StateEstablished)
	return &nlmsg.ConnInfo{
		Token: detachToken, AppNxt: 64 << 10,
		Subflows: []nlmsg.SubflowInfo{
			{Tuple: detachTuple(40000), State: est, PacingRate: 1 << 20},
			{Tuple: detachTuple(40001), State: est, PacingRate: 1 << 10},
		},
	}
}

// TestDetachStopsController drives each of the four policies whose Detach
// only SwitchPolicy calls to where it has work pending — an armed timer or
// an unanswered GetInfo — and detaches it. Afterwards no timer is armed,
// and the events and replies that make an attached instance act (checked on
// a second instance that is never detached) yield no command.
func TestDetachStopsController(t *testing.T) {
	created := nlmsg.Event{Kind: nlmsg.EvCreated, Tuple: detachTuple(40000), HasTuple: true}
	established := nlmsg.Event{Kind: nlmsg.EvEstablished, Tuple: detachTuple(40000), HasTuple: true}
	timeout := nlmsg.Event{Kind: nlmsg.EvTimeout, Tuple: detachTuple(40000), HasTuple: true, RTO: 4 * time.Second}
	subClosed := nlmsg.Event{Kind: nlmsg.EvSubClosed, Tuple: detachTuple(40000), HasTuple: true}
	subUp := func(port uint16) nlmsg.Event {
		return nlmsg.Event{Kind: nlmsg.EvSubEstablished, Tuple: detachTuple(port), HasTuple: true}
	}

	cases := []struct {
		name   string
		ctl    func() Controller
		before func(l *recLib) // leaves work pending
		after  func(l *recLib) // makes an attached instance act
	}{
		{
			name:   "backup",
			ctl:    func() Controller { return NewBackup(detachSecond) },
			before: func(l *recLib) { l.deliver(created) },
			after: func(l *recLib) {
				l.deliver(timeout)
				l.deliver(subClosed)
			},
		},
		{
			name:   "ndiffports",
			ctl:    func() Controller { return NewNDiffPorts(3) },
			before: func(l *recLib) { l.deliver(created) },
			after:  func(l *recLib) { l.deliver(established) },
		},
		{
			name: "refresh",
			ctl:  func() Controller { return NewRefresh(3) },
			before: func(l *recLib) {
				l.deliver(created)
				l.deliver(established) // opens two more, arms the tick
				l.deliver(subUp(40000))
				l.deliver(subUp(40001))
				l.now += 2 * refreshInterval
				l.fire() // the tick: a GetInfo in flight, the next tick armed
			},
			after: func(l *recLib) {
				l.answer(matureInfo()) // would replace the slower subflow
				l.fire()               // would poll again
			},
		},
		{
			name: "stream",
			ctl:  func() Controller { return NewStream(detachSecond) },
			before: func(l *recLib) {
				l.deliver(created)
				l.deliver(established) // arms the first probe
				l.now += time.Second
				l.fire() // the probe: a GetInfo in flight
			},
			after: func(l *recLib) {
				l.answer(matureInfo()) // too little progress: would open the second
				l.fire()               // would probe the next block
				l.deliver(timeout)     // would open the second or kill this one
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			attached := &recLib{}
			ctl := tc.ctl()
			ctl.Attach(attached)
			tc.before(attached)
			attached.cmds = nil
			tc.after(attached)
			if len(attached.cmds) == 0 {
				t.Fatal("the attached controller did nothing either: the case checks nothing")
			}

			l := &recLib{}
			ctl = tc.ctl()
			ctl.Attach(l)
			tc.before(l)
			ctl.Detach()
			if n := l.armed(); n != 0 {
				t.Fatalf("%d timers still armed after Detach", n)
			}
			l.cmds = nil
			tc.after(l)
			if len(l.cmds) != 0 {
				t.Fatalf("commands after Detach: %v", l.cmds)
			}
		})
	}
}
