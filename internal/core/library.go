package core

import (
	"net/netip"
	"slices"
	"time"

	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
)

// Clock abstracts time for subflow controllers so the same controller code
// runs on the virtual clock (experiments) and the wall clock (cmd/smappd).
type Clock interface {
	// Now reports time since an arbitrary epoch.
	Now() time.Duration
	// After schedules fn once after d; the returned function cancels it:
	// once cancel returns, fn does not run.
	After(d time.Duration, fn func()) (cancel func())
}

// SimClock adapts a discrete-event simulation clock to Clock.
type SimClock struct{ S sim.Clock }

// Now implements Clock.
func (c SimClock) Now() time.Duration { return time.Duration(c.S.Now()) }

// After implements Clock.
func (c SimClock) After(d time.Duration, fn func()) func() {
	ev := c.S.After(d, "controller.timer", fn)
	return func() { c.S.Cancel(ev) }
}

// Callbacks holds the event handlers a subflow controller registers. Only
// non-nil handlers cause a kernel-side subscription, so a controller pays
// the Netlink crossing only for events it cares about.
//
// Ownership: the *Event a handler receives is the library's reused decode
// scratch — valid only until the handler returns. A handler that buffers
// the event must copy the struct (it is a plain value; `c := *ev` is a
// deep copy, Event holds no references into the wire buffer).
type Callbacks struct {
	Created        func(ev *nlmsg.Event)
	Established    func(ev *nlmsg.Event)
	Closed         func(ev *nlmsg.Event)
	SubEstablished func(ev *nlmsg.Event)
	SubClosed      func(ev *nlmsg.Event)
	AddAddr        func(ev *nlmsg.Event)
	RemAddr        func(ev *nlmsg.Event)
	Timeout        func(ev *nlmsg.Event)
	LocalAddrUp    func(ev *nlmsg.Event)
	LocalAddrDown  func(ev *nlmsg.Event)
}

// mask derives the subscription mask from the registered handlers.
func (cb *Callbacks) mask() nlmsg.EventMask {
	var m nlmsg.EventMask
	set := func(c nlmsg.Cmd, fn func(*nlmsg.Event)) {
		if fn != nil {
			m |= nlmsg.MaskOf(c)
		}
	}
	set(nlmsg.EvCreated, cb.Created)
	set(nlmsg.EvEstablished, cb.Established)
	set(nlmsg.EvClosed, cb.Closed)
	set(nlmsg.EvSubEstablished, cb.SubEstablished)
	set(nlmsg.EvSubClosed, cb.SubClosed)
	set(nlmsg.EvAddAddr, cb.AddAddr)
	set(nlmsg.EvRemAddr, cb.RemAddr)
	set(nlmsg.EvTimeout, cb.Timeout)
	set(nlmsg.EvLocalAddrUp, cb.LocalAddrUp)
	set(nlmsg.EvLocalAddrDown, cb.LocalAddrDown)
	return m
}

// Dispatch invokes the handler registered for the event's kind, if any.
// Both the Library itself and per-connection views built on top of it
// (internal/smapp) route decoded events through this one switch.
func (cb *Callbacks) Dispatch(ev *nlmsg.Event) {
	var fn func(*nlmsg.Event)
	switch ev.Kind {
	case nlmsg.EvCreated:
		fn = cb.Created
	case nlmsg.EvEstablished:
		fn = cb.Established
	case nlmsg.EvClosed:
		fn = cb.Closed
	case nlmsg.EvSubEstablished:
		fn = cb.SubEstablished
	case nlmsg.EvSubClosed:
		fn = cb.SubClosed
	case nlmsg.EvAddAddr:
		fn = cb.AddAddr
	case nlmsg.EvRemAddr:
		fn = cb.RemAddr
	case nlmsg.EvTimeout:
		fn = cb.Timeout
	case nlmsg.EvLocalAddrUp:
		fn = cb.LocalAddrUp
	case nlmsg.EvLocalAddrDown:
		fn = cb.LocalAddrDown
	}
	if fn != nil {
		fn(ev)
	}
}

// Lib is the PM-library surface subflow controllers program against.
// *Library implements it directly (the paper's single-controller mode);
// internal/smapp implements it with a per-connection view so one library
// can host an independent policy per connection.
//
// A command's done runs at most once, with the kernel's answer, and a library
// answers its commands in the order it sent them: the kernel acks each
// command as it applies it, on the same ordered channel as its events.
type Lib interface {
	// Register installs the controller's event callbacks.
	Register(cbs Callbacks, done func(errno uint32))
	// CreateSubflow opens a subflow from an arbitrary 4-tuple.
	CreateSubflow(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32))
	// RemoveSubflow removes (RSTs) an established subflow.
	RemoveSubflow(token uint32, ft seg.FourTuple, done func(errno uint32))
	// SetBackup changes a subflow's backup priority (MP_PRIO).
	SetBackup(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32))
	// AnnounceAddr advertises a local address (ADD_ADDR).
	AnnounceAddr(token uint32, addr netip.Addr, port uint16, done func(errno uint32))
	// GetInfo retrieves the TCP_INFO-like snapshot of a connection; done
	// receives nil if the connection is gone. The *ConnInfo is borrowed,
	// like a callback's *Event: valid only until done returns, so done
	// copies what it keeps (Subflows included).
	GetInfo(token uint32, done func(info *nlmsg.ConnInfo))
	// Clock exposes the controller clock, which schedules controller
	// work.
	Clock() Clock
}

// LibStats counts library activity.
type LibStats struct {
	EventsReceived  uint64
	CommandsSent    uint64
	RepliesMatched  uint64
	RepliesOrphaned uint64
	ParseErrors     uint64
}

// Library is the userspace PM library: it owns the controller side of the
// transport, decodes events into callbacks, and provides the command API.
// Subflow controllers are written purely against this type — they never
// touch Netlink bytes, mirroring the paper's libpathmanager.
type Library struct {
	clock    Clock
	toKernel Pipe
	cbs      Callbacks
	pid      uint32
	nextSeq  uint32

	// Commands awaiting their reply, oldest first. The kernel answers one
	// library's commands in the order it got them, so a reply almost always
	// matches the first; the scan goes on past it, so a reply that never
	// comes costs later ones a comparison, not their match. A handful are
	// outstanding at a time, so taking one out shifts next to nothing.
	pending []pendingReply

	// sc is where frames are decoded in place: attr views alias the wire
	// buffer and the Event is reused per message, so callbacks must copy
	// anything they keep past their return (see Callbacks and Scratch).
	sc *Scratch

	Stats LibStats
}

// Scratch is what the Libraries and NetlinkPMs of one simulation loop
// decode their frames into: a Message, an Event and a ConnInfo for the
// library side, a Message and a Command for the kernel side, which also
// builds its get-info replies in a ConnInfo of its own. The ConnInfos keep
// their Subflows arrays, so a poll allocates nothing once one reply as
// large has been through. A frame is decoded and handled message by
// message, and its handler is done with the scratch when it returns; on
// one loop every frame is delivered by an event of its own, so no two
// frames of one side are ever in hand at once, and sharing costs nothing.
// The two sides keep separate halves, so a command a library handler
// sends may be decoded at once by a PM without touching the event or the
// snapshot the handler still reads.
//
// One Scratch serves one event loop and never two: a library or PM that
// runs on its own goroutine (cmd/smappd, smappctl) is built with
// NewLibrary or NewNetlinkPM, which give it scratch of its own.
type Scratch struct {
	libMsg  nlmsg.Message
	ev      nlmsg.Event
	libInfo nlmsg.ConnInfo
	pmMsg   nlmsg.Message
	cmd     nlmsg.Command
	pmInfo  nlmsg.ConnInfo
}

// pendingReply is one sent command's continuation: done takes the errno of
// its ack, info (GetInfo) the decoded reply. Either may be nil.
type pendingReply struct {
	seq  uint32
	done func(errno uint32)
	info func(*nlmsg.ConnInfo)
}

// NewLibrary attaches a library to the controller end of a transport, with
// decode scratch of its own.
func NewLibrary(tr *Transport, clock Clock, pid uint32) *Library {
	return new(Scratch).NewLibrary(tr, clock, pid)
}

// NewLibrary attaches a library that decodes into sc, shared with every
// library on the same event loop (see Scratch).
func (sc *Scratch) NewLibrary(tr *Transport, clock Clock, pid uint32) *Library {
	l := &Library{clock: clock, toKernel: tr.ToKernel, pid: pid, sc: sc}
	tr.ToUser.SetReceiver(l.OnMessage)
	return l
}

// Clock exposes the controller clock (for probe timers).
func (l *Library) Clock() Clock { return l.clock }

// Register installs the controller's callbacks and subscribes to exactly
// the events it handles. done (optional) runs when the kernel acknowledges
// the subscription.
func (l *Library) Register(cbs Callbacks, done func(errno uint32)) {
	l.cbs = cbs
	l.sendCmd(&nlmsg.Command{Kind: nlmsg.CmdSubscribe, Pid: l.pid, Mask: cbs.mask()}, done, nil)
}

// CreateSubflow asks the kernel to open a subflow for the connection
// identified by token, from an arbitrary 4-tuple (SrcPort 0 lets the
// kernel pick an ephemeral port). done (optional) receives the errno.
func (l *Library) CreateSubflow(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	l.sendCmd(&nlmsg.Command{Kind: nlmsg.CmdCreateSubflow, Pid: l.pid, Token: token, Tuple: ft, Backup: backup}, done, nil)
}

// RemoveSubflow asks the kernel to remove (RST) an established subflow.
func (l *Library) RemoveSubflow(token uint32, ft seg.FourTuple, done func(errno uint32)) {
	l.sendCmd(&nlmsg.Command{Kind: nlmsg.CmdRemoveSubflow, Pid: l.pid, Token: token, Tuple: ft}, done, nil)
}

// SetBackup changes a subflow's backup priority (MP_PRIO).
func (l *Library) SetBackup(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	l.sendCmd(&nlmsg.Command{Kind: nlmsg.CmdSetBackup, Pid: l.pid, Token: token, Tuple: ft, Backup: backup}, done, nil)
}

// AnnounceAddr advertises a local address on the connection (ADD_ADDR).
func (l *Library) AnnounceAddr(token uint32, addr netip.Addr, port uint16, done func(errno uint32)) {
	l.sendCmd(&nlmsg.Command{Kind: nlmsg.CmdAnnounceAddr, Pid: l.pid, Token: token,
		Addr: addr, Port: port}, done, nil)
}

// GetInfo retrieves the TCP_INFO-like snapshot of a connection and its
// subflows. done receives nil if the connection is gone. The reply is
// decoded into the library half of the loop's Scratch: the *ConnInfo is
// borrowed until done returns, like a callback's *Event, so done copies
// what it keeps — Subflows included, whose backing array the next reply
// reuses.
func (l *Library) GetInfo(token uint32, done func(info *nlmsg.ConnInfo)) {
	l.sendCmd(&nlmsg.Command{Kind: nlmsg.CmdGetInfo, Pid: l.pid, Token: token}, nil, done)
}

// sendCmd sends one command and queues its continuation (see pendingReply).
func (l *Library) sendCmd(cmd *nlmsg.Command, done func(uint32), info func(*nlmsg.ConnInfo)) {
	l.nextSeq++
	cmd.Seq = l.nextSeq
	l.pending = append(l.pending, pendingReply{cmd.Seq, done, info})
	l.Stats.CommandsSent++
	l.toKernel.Send(cmd.AppendMarshal(l.frame()))
}

// frame returns an empty wire buffer: from the free list of the event loop
// a library on a SimClock runs on, else from the nlmsg.Wire store.
func (l *Library) frame() []byte {
	if c, ok := l.clock.(SimClock); ok {
		return nlmsg.Wire.On(sim.Lists(c.S)).Get()
	}
	return nlmsg.Wire.Get()
}

// takePending removes and returns the continuation of the command numbered
// seq: the first in the usual case, else whichever entry the scan finds.
func (l *Library) takePending(seq uint32) (pendingReply, bool) {
	for i := range l.pending {
		if l.pending[i].seq == seq {
			p := l.pending[i]
			l.pending = slices.Delete(l.pending, i, i+1)
			return p, true
		}
	}
	return pendingReply{}, false
}

// OnMessage is the transport receiver: it decodes every message in the
// delivered frame (coalesced kernels batch several per crossing) and
// dispatches each. Exposed so socket-based owners can pump it directly.
// The frame is only borrowed — everything is decoded in place, so neither
// reply callbacks nor event handlers may retain what they are handed.
func (l *Library) OnMessage(b []byte) {
	for off := 0; off < len(b); {
		n, err := nlmsg.UnmarshalInto(b[off:], &l.sc.libMsg)
		if err != nil {
			l.Stats.ParseErrors++
			return
		}
		off += n
		l.dispatch(&l.sc.libMsg)
	}
}

func (l *Library) dispatch(m *nlmsg.Message) {
	switch m.Cmd {
	case nlmsg.ReplyAck, nlmsg.ReplyInfo:
		p, ok := l.takePending(m.Seq)
		if !ok {
			l.Stats.RepliesOrphaned++
			return
		}
		l.Stats.RepliesMatched++
		switch {
		case p.info != nil:
			l.replyInfo(m, p.info)
		case p.done != nil:
			errno, err := nlmsg.ParseAck(m)
			if err != nil {
				errno = errnoEINVAL
			}
			p.done(errno)
		}
		return
	}
	if err := nlmsg.ParseEventInto(m, &l.sc.ev); err != nil {
		l.Stats.ParseErrors++
		return
	}
	l.Stats.EventsReceived++
	l.cbs.Dispatch(&l.sc.ev)
}

// replyInfo hands a get-info reply to its continuation: the decoded
// snapshot, or nil for an ack (the connection is gone) or a reply that
// does not parse.
func (l *Library) replyInfo(m *nlmsg.Message, done func(*nlmsg.ConnInfo)) {
	if m.Cmd != nlmsg.ReplyInfo {
		done(nil)
		return
	}
	if err := nlmsg.ParseInfoInto(m, &l.sc.libInfo); err != nil {
		l.Stats.ParseErrors++
		done(nil)
		return
	}
	done(&l.sc.libInfo)
}
