package core

import (
	"net/netip"
	"time"

	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// NetlinkPM is the kernel-side Netlink path manager: it implements the
// in-kernel path-manager interface (mptcp.PathManager) and forwards every
// hook as a Netlink event to the userspace subflow controller, subject to
// the controller's subscription mask. Inbound command messages are decoded
// and executed against the owning connections.
//
// As in the paper, the kernel keeps no policy: all decisions live in the
// controller. The kernel part only needs the token→connection table it
// already maintains for MP_JOIN processing.
type NetlinkPM struct {
	mptcp.NopPM
	sim   sim.Clock
	tr    *Transport
	conns map[uint32]*mptcp.Connection
	mask  nlmsg.EventMask
	pid   uint32

	// Coalescing state (SetCoalescing). With flushEvery 0 — the default —
	// every event goes out immediately in its own frame; otherwise events
	// queue per flush window and leave as one pooled multi-message frame.
	flushEvery time.Duration
	queueCap   int
	queue      []nlmsg.Event
	flushArmed bool

	// sc is where command frames are decoded in place (see Scratch).
	sc *Scratch

	// Stats counters; HarvestInto exports them as the ctl_* metrics.
	EventsSent      uint64
	EventsMasked    uint64
	EventsCoalesced uint64
	EventsDropped   uint64
	Flushes         uint64
	CommandsRun     uint64
	QueueHighWater  uint64 // max pending events observed in the coalescing queue
}

// HarvestInto folds the counters into slot of r as the seven ctl_* metrics
// — the slot of the shard the kernel host runs on. The counters are the
// one place the control plane counts; a metered run harvests them once,
// when it ends.
func (pm *NetlinkPM) HarvestInto(r *metrics.Registry, slot int) {
	r.Counter("ctl_events_sent", slot).Add(pm.EventsSent)
	r.Counter("ctl_events_masked", slot).Add(pm.EventsMasked)
	r.Counter("ctl_events_coalesced", slot).Add(pm.EventsCoalesced)
	r.Counter("ctl_events_dropped", slot).Add(pm.EventsDropped)
	r.Counter("ctl_flushes", slot).Add(pm.Flushes)
	r.Counter("ctl_commands", slot).Add(pm.CommandsRun)
	r.Gauge("ctl_queue_hw", slot).SetMax(pm.QueueHighWater)
}

// DefaultCtlQueue is the per-subscriber event queue bound used when
// SetCoalescing is given a non-positive queue size.
const DefaultCtlQueue = 128

// NewNetlinkPM creates the kernel part and attaches it to the transport's
// command pipe. Pass the returned value as the PathManager when building
// the mptcp.Endpoint.
//
// Until the first CmdSubscribe arrives the mask is MaskAll: a controller
// that registers concurrently with early connections must not miss their
// created/estab events (the subscribe command and the first events race
// through the two pipe directions; FIFO per direction keeps everything
// ordered once delivered).
//
// The PM's decode scratch is its own.
func NewNetlinkPM(c sim.Clock, tr *Transport) *NetlinkPM {
	return new(Scratch).NewNetlinkPM(c, tr)
}

// NewNetlinkPM creates a kernel part that decodes into sc, shared with
// every PM on the same event loop (see Scratch).
func (sc *Scratch) NewNetlinkPM(c sim.Clock, tr *Transport) *NetlinkPM {
	pm := &NetlinkPM{sim: c, tr: tr, conns: make(map[uint32]*mptcp.Connection), mask: nlmsg.MaskAll, sc: sc}
	tr.ToKernel.SetReceiver(pm.handleCommand)
	return pm
}

// SetCoalescing switches event delivery to batched mode: events emitted
// within window of each other leave as one pooled multi-message frame (one
// transport crossing), superseded events coalesce away, and the pending
// queue is bounded at queueCap (≤0 means DefaultCtlQueue) with drop-oldest
// backpressure that spares created events. window 0 restores the default
// immediate one-frame-per-event delivery — which is also what every golden
// experiment runs, since batching changes how many latency draws the
// transport makes.
func (pm *NetlinkPM) SetCoalescing(window time.Duration, queueCap int) {
	pm.flushEvery = window
	if queueCap <= 0 {
		queueCap = DefaultCtlQueue
	}
	pm.queueCap = queueCap
}

// send encodes and emits an event if the controller subscribed to it.
func (pm *NetlinkPM) send(e *nlmsg.Event) {
	if !pm.mask.Has(e.Kind) {
		pm.EventsMasked++
		return
	}
	e.At = time.Duration(pm.sim.Now())
	if pm.flushEvery > 0 {
		pm.enqueue(e)
		return
	}
	pm.EventsSent++
	pm.tr.ToUser.Send(e.AppendMarshal(nlmsg.Wire.Get(), 0, pm.pid))
}

// enqueue adds an event to the pending window, cancelling pairs that a
// subscriber delivered-in-one-batch could never observe anyway:
//
//   - sub_estab then sub_closed of the same subflow — the subflow came and
//     went inside one window, invisible churn;
//   - created (plus anything else for that token) then closed — the whole
//     connection came and went;
//   - local addr up/down flip-flops of the same address.
//
// Coalescing only ever removes strictly-older events of the same scope, so
// per-scope ordering of what remains is preserved.
func (pm *NetlinkPM) enqueue(e *nlmsg.Event) {
	switch e.Kind {
	case nlmsg.EvSubClosed:
		if i := pm.findQueuedSub(nlmsg.EvSubEstablished, e.Token, e.Tuple); i >= 0 {
			pm.removeQueued(i)
			pm.EventsCoalesced += 2
			return
		}
	case nlmsg.EvClosed:
		if e.Token != 0 {
			sawCreated := false
			n := 0
			for i := range pm.queue {
				if pm.queue[i].Token == e.Token {
					if pm.queue[i].Kind == nlmsg.EvCreated {
						sawCreated = true
					}
					pm.EventsCoalesced++
					continue
				}
				pm.queue[n] = pm.queue[i]
				n++
			}
			pm.queue = pm.queue[:n]
			if sawCreated {
				pm.EventsCoalesced++
				return
			}
		}
	case nlmsg.EvLocalAddrUp:
		if i := pm.findQueuedAddr(nlmsg.EvLocalAddrDown, e.Addr); i >= 0 {
			pm.removeQueued(i)
			pm.EventsCoalesced += 2
			return
		}
	case nlmsg.EvLocalAddrDown:
		if i := pm.findQueuedAddr(nlmsg.EvLocalAddrUp, e.Addr); i >= 0 {
			pm.removeQueued(i)
			pm.EventsCoalesced += 2
			return
		}
	}
	if len(pm.queue) >= pm.queueCap {
		// Drop the oldest event that is not a created: any other is
		// overtaken by later state, but a lost created leaves its
		// connection unmanaged for good. A queue of createds drops its
		// oldest.
		drop := 0
		for i := range pm.queue {
			if pm.queue[i].Kind != nlmsg.EvCreated {
				drop = i
				break
			}
		}
		pm.removeQueued(drop)
		pm.EventsDropped++
	}
	pm.queue = append(pm.queue, *e)
	if n := uint64(len(pm.queue)); n > pm.QueueHighWater {
		pm.QueueHighWater = n
	}
	if !pm.flushArmed {
		pm.flushArmed = true
		pm.sim.AfterArg(pm.flushEvery, "netlink.flush", flushQueue, pm)
	}
}

func (pm *NetlinkPM) findQueuedSub(kind nlmsg.Cmd, token uint32, ft seg.FourTuple) int {
	for i := range pm.queue {
		if pm.queue[i].Kind == kind && pm.queue[i].Token == token && pm.queue[i].Tuple == ft {
			return i
		}
	}
	return -1
}

func (pm *NetlinkPM) findQueuedAddr(kind nlmsg.Cmd, addr netip.Addr) int {
	for i := range pm.queue {
		if pm.queue[i].Kind == kind && pm.queue[i].Addr == addr {
			return i
		}
	}
	return -1
}

func (pm *NetlinkPM) removeQueued(i int) {
	copy(pm.queue[i:], pm.queue[i+1:])
	pm.queue = pm.queue[:len(pm.queue)-1]
}

func flushQueue(pm any) { pm.(*NetlinkPM).flush() }

// flush marshals the whole pending window into one pooled frame and sends
// it as a single transport crossing. Event timestamps keep their emission
// time (set in send), so decision-latency measurements see queueing delay.
func (pm *NetlinkPM) flush() {
	pm.flushArmed = false
	if len(pm.queue) == 0 {
		return
	}
	buf := nlmsg.Wire.Get()
	for i := range pm.queue {
		buf = pm.queue[i].AppendMarshal(buf, 0, pm.pid)
	}
	pm.EventsSent += uint64(len(pm.queue))
	pm.Flushes++
	pm.queue = pm.queue[:0]
	pm.tr.ToUser.Send(buf)
}

// ConnCreated implements mptcp.PathManager.
func (pm *NetlinkPM) ConnCreated(c *mptcp.Connection) {
	pm.conns[c.Token()] = c
	pm.send(&nlmsg.Event{Kind: nlmsg.EvCreated, Token: c.Token(), Tuple: c.InitialTuple(), HasTuple: true})
}

// ConnEstablished implements mptcp.PathManager.
func (pm *NetlinkPM) ConnEstablished(c *mptcp.Connection) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvEstablished, Token: c.Token(), Tuple: c.InitialTuple(), HasTuple: true})
}

// ConnClosed implements mptcp.PathManager.
func (pm *NetlinkPM) ConnClosed(c *mptcp.Connection) {
	delete(pm.conns, c.Token())
	pm.send(&nlmsg.Event{Kind: nlmsg.EvClosed, Token: c.Token()})
}

// SubflowEstablished implements mptcp.PathManager.
func (pm *NetlinkPM) SubflowEstablished(c *mptcp.Connection, sf *tcp.Subflow) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvSubEstablished, Token: c.Token(), Tuple: sf.Tuple(), HasTuple: true})
}

// SubflowClosed implements mptcp.PathManager.
func (pm *NetlinkPM) SubflowClosed(c *mptcp.Connection, sf *tcp.Subflow, reason tcp.Errno) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvSubClosed, Token: c.Token(), Tuple: sf.Tuple(), HasTuple: true,
		Errno: uint32(reason)})
}

// AddrAnnounced implements mptcp.PathManager.
func (pm *NetlinkPM) AddrAnnounced(c *mptcp.Connection, id uint8, addr netip.Addr, port uint16) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvAddAddr, Token: c.Token(), AddrID: id, Addr: addr, Port: port})
}

// AddrRemoved implements mptcp.PathManager.
func (pm *NetlinkPM) AddrRemoved(c *mptcp.Connection, id uint8) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvRemAddr, Token: c.Token(), AddrID: id})
}

// Timeout implements mptcp.PathManager.
func (pm *NetlinkPM) Timeout(c *mptcp.Connection, sf *tcp.Subflow, rto time.Duration, backoffs int) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvTimeout, Token: c.Token(), Tuple: sf.Tuple(), HasTuple: true,
		RTO: rto, Backoffs: uint32(backoffs)})
}

// LocalAddrUp implements mptcp.PathManager.
func (pm *NetlinkPM) LocalAddrUp(addr netip.Addr) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvLocalAddrUp, Addr: addr})
}

// LocalAddrDown implements mptcp.PathManager.
func (pm *NetlinkPM) LocalAddrDown(addr netip.Addr) {
	pm.send(&nlmsg.Event{Kind: nlmsg.EvLocalAddrDown, Addr: addr})
}

// --- Command execution ---

// Errno values for command acks (beyond tcp's).
const (
	errnoOK     = 0
	errnoNOENT  = 2  // no such connection/subflow
	errnoEINVAL = 22 // malformed command
)

// handleCommand decodes every message in the delivered frame in place
// (commands may be batched the same way events are) and executes each.
func (pm *NetlinkPM) handleCommand(b []byte) {
	for off := 0; off < len(b); {
		n, err := nlmsg.UnmarshalInto(b[off:], &pm.sc.pmMsg)
		if err != nil {
			return // a real kernel would NACK; a short message has no seq to ack
		}
		off += n
		pm.runCommand(&pm.sc.pmMsg)
	}
}

func (pm *NetlinkPM) runCommand(m *nlmsg.Message) {
	cmd := &pm.sc.cmd
	if err := nlmsg.ParseCommandInto(m, cmd); err != nil {
		pm.ack(m.Seq, m.Pid, errnoEINVAL)
		return
	}
	pm.CommandsRun++
	switch cmd.Kind {
	case nlmsg.CmdSubscribe:
		pm.mask = cmd.Mask
		pm.pid = cmd.Pid
		pm.ack(cmd.Seq, cmd.Pid, errnoOK)

	case nlmsg.CmdCreateSubflow:
		c, ok := pm.conns[cmd.Token]
		if !ok {
			pm.ack(cmd.Seq, cmd.Pid, errnoNOENT)
			return
		}
		_, err := c.OpenSubflow(cmd.Tuple.SrcIP, cmd.Tuple.SrcPort, cmd.Tuple.DstIP, cmd.Tuple.DstPort, cmd.Backup)
		pm.ack(cmd.Seq, cmd.Pid, errnoOf(err))

	case nlmsg.CmdRemoveSubflow:
		c, sf := pm.findSubflow(cmd.Token, cmd.Tuple)
		if sf == nil {
			pm.ack(cmd.Seq, cmd.Pid, errnoNOENT)
			return
		}
		c.CloseSubflow(sf, true)
		pm.ack(cmd.Seq, cmd.Pid, errnoOK)

	case nlmsg.CmdSetBackup:
		c, sf := pm.findSubflow(cmd.Token, cmd.Tuple)
		if sf == nil {
			pm.ack(cmd.Seq, cmd.Pid, errnoNOENT)
			return
		}
		c.SetBackup(sf, cmd.Backup)
		pm.ack(cmd.Seq, cmd.Pid, errnoOK)

	case nlmsg.CmdGetInfo:
		c, ok := pm.conns[cmd.Token]
		if !ok {
			pm.ack(cmd.Seq, cmd.Pid, errnoNOENT)
			return
		}
		c.FillInfo(&pm.sc.pmInfo)
		pm.tr.ToUser.Send(nlmsg.AppendInfo(nlmsg.Wire.Get(), &pm.sc.pmInfo, cmd.Seq, cmd.Pid))

	case nlmsg.CmdAnnounceAddr:
		c, ok := pm.conns[cmd.Token]
		if !ok {
			pm.ack(cmd.Seq, cmd.Pid, errnoNOENT)
			return
		}
		c.AnnounceAddr(cmd.Addr, cmd.Port)
		pm.ack(cmd.Seq, cmd.Pid, errnoOK)

	default:
		pm.ack(cmd.Seq, cmd.Pid, errnoEINVAL)
	}
}

func (pm *NetlinkPM) ack(seq, pid uint32, errno uint32) {
	pm.tr.ToUser.Send(nlmsg.AppendAck(nlmsg.Wire.Get(), errno, seq, pid))
}

func (pm *NetlinkPM) findSubflow(token uint32, ft seg.FourTuple) (*mptcp.Connection, *tcp.Subflow) {
	c, ok := pm.conns[token]
	if !ok {
		return nil, nil
	}
	return c, c.SubflowByTuple(ft)
}

func errnoOf(err error) uint32 {
	switch e := err.(type) {
	case nil:
		return errnoOK
	case tcp.Errno:
		return uint32(e)
	default:
		return errnoEINVAL
	}
}
