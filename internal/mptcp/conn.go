package mptcp

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ConnCallbacks are the application-facing notifications of a connection.
// All fields are optional.
type ConnCallbacks struct {
	// OnEstablished fires when the MP_CAPABLE handshake completes.
	OnEstablished func(c *Connection)
	// OnData fires whenever the in-order received byte count advances;
	// total is the number of contiguous payload bytes received so far.
	OnData func(c *Connection, total uint64)
	// OnDataAck fires when the connection-level snd_una advances; una is
	// the number of payload bytes the peer has cumulatively acknowledged.
	OnDataAck func(c *Connection, una uint64)
	// OnPeerClose fires once when the peer's DATA_FIN has been received
	// in order (the stream from the peer is complete).
	OnPeerClose func(c *Connection)
	// OnClosed fires once when the connection is fully terminated.
	OnClosed func(c *Connection)
}

// ConnStats counts connection-level activity.
type ConnStats struct {
	BytesWritten    uint64
	BytesScheduled  uint64 // first-time scheduling only
	BytesReinjected uint64 // bytes queued again after a timeout/subflow death
	BytesDuplicated uint64 // redundant copies placed by a MultiPicker scheduler
	ChunksPushed    uint64
	SubflowsOpened  uint64 // locally initiated
	SubflowsClosed  uint64
}

// sfMeta is the per-subflow MPTCP state (join nonces, address IDs).
type sfMeta struct {
	isInitial   bool
	nonceLocal  uint32
	nonceRemote uint32
	localAddrID uint8
	reqBackup   bool
}

// spare is a dead subflow and the event count of its loop when it died
// (sim.EventCount).
type spare struct {
	sf     *tcp.Subflow
	diedAt uint64
}

// Connection is one Multipath TCP connection: a set of subflows carrying a
// single bidirectional data stream with connection-level sequencing.
type Connection struct {
	ep       *Endpoint
	sched    Scheduler
	cb       ConnCallbacks
	onAccept func(*Connection) // listener accept callback (server side)

	localKey, remoteKey   uint64
	token, remoteToken    uint32
	localIDSN, remoteIDSN uint64
	initialTuple          seg.FourTuple
	isClient              bool
	established           bool
	closed                bool
	subflows              []*tcp.Subflow
	meta                  []sfMeta // meta[i] belongs to subflows[i]
	// Where subflows and meta start: room for the usual handful inside the
	// connection, so only a wider mesh grows them on the heap.
	sfRoom   [4]*tcp.Subflow
	metaRoom [4]sfMeta

	// Handshake-option scratch lent to the subflow engine by
	// HandshakeOptions, which copies it into the segment at once.
	hsOpts [1]seg.Option
	hsMPC  seg.MPCapable
	hsJoin seg.MPJoin

	// Sender state, in relative data-sequence space (0 = first app byte).
	appNxt       uint64 // bytes written by the application
	schedNxt     uint64 // bytes handed to subflows at least once
	sndUna       uint64 // cumulative DATA_ACK from the peer
	finQueued    bool
	finScheduled bool
	finRel       uint64 // the DATA_FIN occupies [finRel, finRel+1)
	reinject     ivalSet64

	// Receiver state.
	rcv         reassembly
	peerFinRel  uint64
	peerFinSeen bool
	peerClosed  bool // OnPeerClose delivered

	remoteAddrs map[uint8]netip.AddrPort // peer announcements (ADD_ADDR); nil until the first

	// TracePush, when set, observes every chunk handed to a subflow: the
	// Fig. 2a experiment uses it to plot data sequence vs time per subflow.
	TracePush func(sf *tcp.Subflow, rel uint64, ln int, reinjected bool)

	pickBuf []*tcp.Subflow // reused scheduler-target scratch (push)

	// Subflows that died on this connection, kept for newSubflow to reuse
	// instead of allocating (a flap's re-join). Each is handed out only
	// once a later event than the one that killed it runs: the handle is
	// valid until that event returns (tcp.Owner.OnClosed). connClosed
	// drops them, so a finished connection retains none.
	spares [2]spare

	// Trace recording (nil shard = off); the connection registers one
	// trace entity per subflow and records scheduler picks, reassembly
	// progress, and subflow churn against them.
	tsh *trace.Shard
	tid uint32

	stats ConnStats
}

// --- Accessors ---

// Token reports the connection's local token (its identifier in path
// manager events, as in the Linux Netlink API).
func (c *Connection) Token() uint32 { return c.token }

// IsClient reports whether this end initiated the connection.
func (c *Connection) IsClient() bool { return c.isClient }

// Established reports whether the MP_CAPABLE handshake completed.
func (c *Connection) Established() bool { return c.established }

// Closed reports whether the connection has fully terminated.
func (c *Connection) Closed() bool { return c.closed }

// Endpoint reports the owning endpoint.
func (c *Connection) Endpoint() *Endpoint { return c.ep }

// InitialTuple reports the 4-tuple of the initial subflow (retained even
// after that subflow dies).
func (c *Connection) InitialTuple() seg.FourTuple { return c.initialTuple }

// Subflows lists the connection's live subflows in creation order. The
// returned slice is a defensive copy: callers (controllers, smapp.Info)
// may reorder it without aliasing the connection's internal state, which
// mutates as subflows come and go. The snapshot is for use within the
// current event: a subflow in it that dies is reused for a later join
// from the next event on (tcp.Owner.OnClosed), so a caller that keeps
// handles across events must drop each one when it is closed.
func (c *Connection) Subflows() []*tcp.Subflow {
	if len(c.subflows) == 0 {
		return nil
	}
	return append([]*tcp.Subflow(nil), c.subflows...)
}

// SubflowByTuple returns the live subflow bound to the 4-tuple, nil when
// the connection has none — Subflows without the copy, for a caller that
// wants one subflow and keeps nothing.
func (c *Connection) SubflowByTuple(ft seg.FourTuple) *tcp.Subflow {
	for _, sf := range c.subflows {
		if sf.Tuple() == ft {
			return sf
		}
	}
	return nil
}

// SndUna reports connection-level cumulatively acknowledged payload bytes —
// the snd_una state variable §4.3's smart-stream controller polls.
func (c *Connection) SndUna() uint64 { return min64(c.sndUna, c.appNxt) }

// RcvBytes reports contiguous payload bytes received in order.
func (c *Connection) RcvBytes() uint64 {
	if c.peerFinSeen && c.rcv.nxt > c.peerFinRel {
		return c.peerFinRel
	}
	return c.rcv.nxt
}

// PeerAddrs lists the peer's advertised addresses by address ID.
func (c *Connection) PeerAddrs() map[uint8]netip.AddrPort {
	out := make(map[uint8]netip.AddrPort, len(c.remoteAddrs))
	for k, v := range c.remoteAddrs {
		out[k] = v
	}
	return out
}

// Stats returns a copy of the connection counters.
func (c *Connection) Stats() ConnStats { return c.stats }

// SetCallbacks installs the application callbacks. Server applications
// call this from the listener's accept function; it replaces any previous
// callbacks.
func (c *Connection) SetCallbacks(cb ConnCallbacks) { c.cb = cb }

// Info is a connection-level snapshot including all subflow snapshots —
// what the paper's get-info command returns.
type Info struct {
	Token       uint32
	IsClient    bool
	Established bool
	Closed      bool
	SndUna      uint64
	SchedNxt    uint64
	AppNxt      uint64
	RcvBytes    uint64
	Subflows    []tcp.Info
	Stats       ConnStats
}

// Info snapshots the connection.
func (c *Connection) Info() Info {
	in := Info{
		Token:       c.token,
		IsClient:    c.isClient,
		Established: c.established,
		Closed:      c.closed,
		SndUna:      c.SndUna(),
		SchedNxt:    c.schedNxt,
		AppNxt:      c.appNxt,
		RcvBytes:    c.RcvBytes(),
		Stats:       c.stats,
	}
	for _, sf := range c.subflows {
		in.Subflows = append(in.Subflows, sf.Info())
	}
	return in
}

// FillInfo writes the connection's get-info view — what CmdGetInfo
// answers, the TCP_INFO subset of each live subflow — into info, the way
// a kernel fills a uapi struct in place: every field is overwritten and
// Subflows keeps its backing array, so a reused info costs no allocation
// once it has held as many subflows.
func (c *Connection) FillInfo(info *nlmsg.ConnInfo) {
	*info = nlmsg.ConnInfo{
		Token:    c.token,
		SndUna:   c.SndUna(),
		AppNxt:   c.appNxt,
		RcvBytes: c.RcvBytes(),
		Subflows: info.Subflows[:0],
	}
	for _, sf := range c.subflows {
		in := sf.Info()
		info.Subflows = append(info.Subflows, nlmsg.SubflowInfo{
			Tuple:      in.Tuple,
			State:      uint32(in.State),
			Backup:     in.Backup,
			Cwnd:       uint32(in.Cwnd),
			SRTT:       in.SRTT,
			RTO:        in.RTO,
			Backoffs:   uint32(in.Backoffs),
			PacingRate: uint64(in.PacingRate),
			Flight:     uint32(in.Flight),
		})
	}
}

// --- Sequence-space conversions ---

// relToAbs maps a relative sender data sequence to the wire DSN.
func (c *Connection) relToAbs(rel uint64) uint64 { return c.localIDSN + 1 + rel }

// absToRelLocal maps a wire DATA_ACK back to relative sender space.
func (c *Connection) absToRelLocal(abs uint64) uint64 { return abs - (c.localIDSN + 1) }

// absToRelRemote maps a wire DSN from the peer to relative receiver space.
func (c *Connection) absToRelRemote(abs uint64) uint64 { return abs - (c.remoteIDSN + 1) }

// --- Application API ---

// Write appends n payload bytes to the outgoing stream. (Payload contents
// are not materialised; the simulator tracks byte counts and sequence
// ranges, which is all the protocol machinery observes.)
func (c *Connection) Write(n int) error {
	if c.finQueued {
		return fmt.Errorf("mptcp: write after close")
	}
	if c.closed {
		return fmt.Errorf("mptcp: write on closed connection")
	}
	c.appNxt += uint64(n)
	c.stats.BytesWritten += uint64(n)
	c.push()
	return nil
}

// Close ends the outgoing stream gracefully: queued data drains, then a
// DATA_FIN. The connection terminates once both directions have closed and
// all subflows have finished.
func (c *Connection) Close() {
	if c.finQueued || c.closed {
		return
	}
	c.finQueued = true
	c.finRel = c.appNxt
	c.push()
	c.checkCloseProgress()
}

// Abort terminates the connection immediately: MP_FASTCLOSE to the peer and
// RST on every subflow.
func (c *Connection) Abort() {
	if c.closed {
		return
	}
	for _, sf := range c.subflows {
		if sf.Established() {
			sf.SendOptions(&seg.FastClose{ReceiverKey: c.remoteKey})
			break
		}
	}
	for _, sf := range append([]*tcp.Subflow(nil), c.subflows...) {
		sf.Abort(tcp.ECONNABORTED)
	}
	c.connClosed()
}

// --- Path-manager command API (the paper's commands) ---

// OpenSubflow establishes an additional subflow from the given local
// address and port (0 picks an ephemeral port) to the given remote address
// and port — the paper's create-subflow command, taking an arbitrary
// 4-tuple. backup requests RFC 6824 backup priority on the join.
func (c *Connection) OpenSubflow(laddr netip.Addr, lport uint16, raddr netip.Addr, rport uint16, backup bool) (*tcp.Subflow, error) {
	if !c.established {
		return nil, fmt.Errorf("mptcp: cannot join before the connection is established")
	}
	if c.closed {
		return nil, fmt.Errorf("mptcp: connection closed")
	}
	iface := c.ep.host.Iface(laddr)
	if iface == nil || !iface.Up() {
		return nil, tcp.ENETUNREACH
	}
	if lport == 0 {
		lport = c.ep.allocPort()
	}
	tuple := seg.FourTuple{SrcIP: laddr, DstIP: raddr, SrcPort: lport, DstPort: rport}
	if _, busy := c.ep.tuples.Get(keyOf(tuple)); busy {
		return nil, fmt.Errorf("mptcp: tuple %v already in use", tuple)
	}
	sf := c.newSubflow(tuple, sfMeta{
		nonceLocal:  uint32(c.ep.sim.Rand().Int63()),
		localAddrID: c.ep.addrID(laddr),
		reqBackup:   backup,
	})
	sf.SetBackup(backup)
	c.stats.SubflowsOpened++
	sf.Connect()
	return sf, nil
}

// CloseSubflow removes a subflow — the paper's remove-subflow command,
// usable on any subflow, locally created or not. abort sends a RST
// immediately; otherwise the subflow closes gracefully after draining.
func (c *Connection) CloseSubflow(sf *tcp.Subflow, abort bool) {
	if abort {
		sf.Abort(tcp.ECONNABORTED)
	} else {
		sf.Close()
	}
}

// SetBackup changes a subflow's backup priority at runtime, signalling the
// peer with MP_PRIO.
func (c *Connection) SetBackup(sf *tcp.Subflow, backup bool) {
	sf.SetBackup(backup)
	sf.SendOptions(&seg.MPPrio{Backup: backup, HasAddrID: false})
	c.push() // priorities changed; the scheduler may now use other subflows
}

// AnnounceAddr advertises a local address (and optional port) to the peer
// with ADD_ADDR.
func (c *Connection) AnnounceAddr(addr netip.Addr, port uint16) {
	opt := &seg.AddAddr{AddrID: c.ep.addrID(addr), Addr: addr, Port: port, HasPort: port != 0}
	for _, sf := range c.subflows {
		if sf.Established() {
			sf.SendOptions(opt)
			return
		}
	}
}

// WithdrawAddr tells the peer a previously announced address is gone
// (REMOVE_ADDR).
func (c *Connection) WithdrawAddr(addr netip.Addr) {
	opt := &seg.RemoveAddr{AddrIDs: []uint8{c.ep.addrID(addr)}}
	for _, sf := range c.subflows {
		if sf.Established() {
			sf.SendOptions(opt)
			return
		}
	}
}

// --- Subflow construction ---

// newSubflow wires a tcp.Subflow into this connection and the endpoint's
// demux table.
func (c *Connection) newSubflow(tuple seg.FourTuple, m sfMeta) *tcp.Subflow {
	sf := c.takeSpare()
	if sf != nil {
		sf.Reuse(c.ep.sim, &c.ep.tcp, tuple, c)
	} else {
		sf = c.ep.tcp.NewSubflow(c.ep.sim, tuple, c)
	}
	if c.tsh != nil {
		sf.SetTrace(c.tsh, c.tsh.Tracer().Register(trace.EntFlow, c.tid,
			c.ep.host.Name()+"/"+tuple.String()))
	}
	c.subflows = append(c.subflows, sf)
	c.meta = append(c.meta, m)
	c.ep.tuples.Put(keyOf(tuple), sf)
	return sf
}

// takeSpare hands out a spare that died in an earlier event than the one
// now running, nil if there is none.
func (c *Connection) takeSpare() *tcp.Subflow {
	now := sim.EventCount(c.ep.sim)
	for i, s := range c.spares {
		if s.sf != nil && s.diedAt != now {
			c.spares[i] = spare{}
			return s.sf
		}
	}
	return nil
}

// retire keeps a dead subflow as a spare while there is room.
func (c *Connection) retire(sf *tcp.Subflow) {
	for i, s := range c.spares {
		if s.sf == nil {
			c.spares[i] = spare{sf, sim.EventCount(c.ep.sim)}
			return
		}
	}
}

// acceptJoin creates the passive subflow for an inbound MP_JOIN SYN.
func (c *Connection) acceptJoin(tuple seg.FourTuple, syn *seg.Segment) {
	sf := c.newSubflow(tuple, sfMeta{
		nonceLocal:  uint32(c.ep.sim.Rand().Int63()),
		localAddrID: c.ep.addrID(tuple.SrcIP),
	})
	sf.HandleSegment(syn)
}

// subflowIndex reports sf's creation-order position (0 when unknown —
// a dying subflow may already be unlinked).
func (c *Connection) subflowIndex(sf *tcp.Subflow) int {
	for i, s := range c.subflows {
		if s == sf {
			return i
		}
	}
	return 0
}

// metaOf returns sf's MPTCP state. The pointer is into c.meta, so it is
// good until the next subflow is added or removed. Every caller is a
// tcp.Owner callback of a linked subflow (OnClosed unlinks last), and a
// connection has a handful of subflows, so the scan beats the map and
// the per-subflow object it replaced.
func (c *Connection) metaOf(sf *tcp.Subflow) *sfMeta {
	for i, s := range c.subflows {
		if s == sf {
			return &c.meta[i]
		}
	}
	panic("mptcp: callback from a subflow the connection does not own")
}

// removeSubflow forgets a dead subflow.
func (c *Connection) removeSubflow(sf *tcp.Subflow) {
	for i, s := range c.subflows {
		if s == sf {
			c.subflows = append(c.subflows[:i], c.subflows[i+1:]...)
			c.meta = append(c.meta[:i], c.meta[i+1:]...)
			break
		}
	}
	c.ep.tuples.Delete(keyOf(sf.Tuple()))
}

// --- Scheduling ---

// push hands pending data to subflows according to the scheduler:
// reinjected ranges first, then new data, then the DATA_FIN. A scheduler
// implementing MultiPicker may return several subflows per chunk; the
// first accounts for the bytes, the others carry redundant copies (the
// receiver's reassembly discards whichever lands second).
func (c *Connection) push() {
	if !c.established || c.closed {
		return
	}
	mp, _ := c.sched.(MultiPicker)
	for {
		rel, ln, isFin, fromRe := c.nextRange()
		if ln == 0 {
			break
		}
		// The scheduler sees the internal slice (it must not retain it);
		// targets reuse the connection's scratch buffer so the per-chunk
		// scheduling step does not allocate, and are cleared once pushed
		// so the buffer keeps no subflow past its pick.
		targets := c.pickBuf[:0]
		if mp != nil {
			targets = mp.PickAll(targets, c.subflows, ln)
		} else if sf := c.sched.Pick(c.subflows, ln); sf != nil {
			targets = append(targets, sf)
		}
		c.pickBuf = targets[:0]
		if len(targets) == 0 {
			break
		}
		for i, sf := range targets {
			sf.Push(c.relToAbs(rel), ln, isFin)
			c.stats.ChunksPushed++
			picks := &c.ep.totals.Picks
			picks[min(c.subflowIndex(sf), len(picks)-1)]++
			if i > 0 {
				c.stats.BytesDuplicated += uint64(ln)
			}
			if c.tsh != nil {
				var fl uint8
				if fromRe {
					fl |= trace.FReinject
				}
				if i > 0 {
					fl |= trace.FDup
				}
				c.tsh.Rec(c.ep.sim.Now(), trace.KPick, sf.TraceID(), rel, uint32(ln), 0, fl)
			}
			if c.TracePush != nil {
				// Redundant copies are first transmissions, not
				// reinjections; the flag reports reinjection only.
				c.TracePush(sf, rel, ln, fromRe)
			}
		}
		clear(targets)
		if fromRe {
			c.reinject.remove(rel, rel+uint64(ln))
			c.stats.BytesReinjected += uint64(ln)
		} else if isFin {
			c.finScheduled = true
		} else {
			c.schedNxt = rel + uint64(ln)
			c.stats.BytesScheduled += uint64(ln)
		}
	}
}

// nextRange picks the next chunk to schedule.
func (c *Connection) nextRange() (rel uint64, ln int, isFin, fromReinject bool) {
	mss := uint64(c.ep.tcp.Config().MSS)
	for {
		iv, ok := c.reinject.first()
		if !ok {
			break
		}
		if iv.hi <= c.sndUna {
			c.reinject.remove(iv.lo, iv.hi) // already acked meanwhile
			continue
		}
		lo := iv.lo
		if lo < c.sndUna {
			lo = c.sndUna
		}
		n := iv.hi - lo
		n = min(n, mss)
		fin := c.finQueued && lo+n == c.finRel+1
		return lo, int(n), fin, true
	}
	if c.schedNxt < c.appNxt {
		n := c.appNxt - c.schedNxt
		n = min(n, mss)
		return c.schedNxt, int(n), false, false
	}
	if c.finQueued && !c.finScheduled {
		return c.finRel, 1, true, false
	}
	return 0, 0, false, false
}

// reinjectSubflowData queues every not-yet-data-acked byte held by sf for
// transmission on other subflows (used when a subflow dies).
func (c *Connection) reinjectSubflowData(sf *tcp.Subflow) {
	for _, ch := range sf.UnackedChunks() {
		c.reinjectChunk(ch)
	}
}

// reinjectHead queues only the first unacknowledged chunk, which is what
// the kernel's retransmission-timer path reinjects. The rest of the sick
// subflow's queue stays committed to it, protected by its (backed-off)
// RTO — exactly the pathology the paper's §4.3 analysis describes: "the
// data is still retransmitted on the initial subflow... if at this point
// the scheduler decides to send some data on the underperforming subflow,
// this data is protected by an already very long RTO."
func (c *Connection) reinjectHead(sf *tcp.Subflow) {
	for _, ch := range sf.UnackedChunks() {
		lo := c.absToRelLocal(ch.DataSeq)
		if lo+uint64(ch.Len) <= c.sndUna {
			continue // already delivered via another subflow
		}
		c.reinjectChunk(ch)
		return
	}
}

func (c *Connection) reinjectChunk(ch *tcp.Chunk) {
	lo := c.absToRelLocal(ch.DataSeq)
	hi := lo + uint64(ch.Len)
	if hi <= c.sndUna {
		return
	}
	if lo < c.sndUna {
		lo = c.sndUna
	}
	c.reinject.add(lo, hi)
}

// --- tcp.Owner implementation ---

// HandshakeOptions implements tcp.Owner. The option is built in the
// connection's scratch and lent to the subflow, which copies it into the
// handshake segment before this is called again.
func (c *Connection) HandshakeOptions(sf *tcp.Subflow, st tcp.Stage) []seg.Option {
	m := c.metaOf(sf)
	if m.isInitial {
		c.hsMPC = seg.MPCapable{SenderKey: c.localKey}
		if st == tcp.StageACK {
			c.hsMPC.ReceiverKey, c.hsMPC.HasReceiver = c.remoteKey, true
		}
		c.hsOpts[0] = &c.hsMPC
		return c.hsOpts[:]
	}
	switch st {
	case tcp.StageSYN:
		c.hsJoin = seg.MPJoin{
			Form: seg.JoinSYN, Token: c.remoteToken, Nonce: m.nonceLocal,
			AddrID: m.localAddrID, Backup: m.reqBackup,
		}
	case tcp.StageSYNACK:
		c.hsJoin = seg.MPJoin{
			Form:      seg.JoinSYNACK,
			TruncHMAC: seg.TruncatedJoinHMAC(c.localKey, c.remoteKey, m.nonceLocal, m.nonceRemote),
			Nonce:     m.nonceLocal,
			AddrID:    m.localAddrID,
		}
	case tcp.StageACK:
		c.hsJoin = seg.MPJoin{
			Form:     seg.JoinACK,
			FullHMAC: seg.JoinHMAC(c.localKey, c.remoteKey, m.nonceLocal, m.nonceRemote),
		}
	}
	c.hsOpts[0] = &c.hsJoin
	return c.hsOpts[:]
}

// HandshakeAccept implements tcp.Owner.
func (c *Connection) HandshakeAccept(sf *tcp.Subflow, s *seg.Segment, st tcp.Stage) tcp.Verdict {
	m := c.metaOf(sf)
	if m.isInitial {
		return c.acceptInitial(sf, s, st)
	}
	return c.acceptJoinStage(sf, m, s, st)
}

func (c *Connection) acceptInitial(sf *tcp.Subflow, s *seg.Segment, st tcp.Stage) tcp.Verdict {
	mpc := s.MPCapable()
	switch st {
	case tcp.StageSYN: // server side
		if mpc == nil {
			return tcp.Reject // no MPTCP fallback modelled
		}
		c.setRemoteKey(mpc.SenderKey)
		return tcp.Accept
	case tcp.StageSYNACK: // client side
		if mpc == nil {
			return tcp.Reject
		}
		c.setRemoteKey(mpc.SenderKey)
		return tcp.Accept
	case tcp.StageACK: // server side
		if mpc != nil {
			if !mpc.HasReceiver || mpc.SenderKey != c.remoteKey || mpc.ReceiverKey != c.localKey {
				return tcp.Reject
			}
			return tcp.Accept
		}
		// Third ACK lost but data with a valid DSS arrived: RFC 6824
		// treats that as implicit confirmation.
		if s.DSS() != nil {
			return tcp.Accept
		}
		return tcp.Ignore
	}
	return tcp.Reject
}

func (c *Connection) acceptJoinStage(sf *tcp.Subflow, m *sfMeta, s *seg.Segment, st tcp.Stage) tcp.Verdict {
	j := s.MPJoin()
	switch st {
	case tcp.StageSYN: // passive side: token already matched by the endpoint
		if j == nil || j.Form != seg.JoinSYN {
			return tcp.Reject
		}
		m.nonceRemote = j.Nonce
		sf.RemoteAddrID = j.AddrID
		if j.Backup {
			sf.SetBackup(true)
		}
		return tcp.Accept
	case tcp.StageSYNACK: // joining side: authenticate the peer
		if j == nil || j.Form != seg.JoinSYNACK {
			return tcp.Reject
		}
		m.nonceRemote = j.Nonce
		want := seg.TruncatedJoinHMAC(c.remoteKey, c.localKey, m.nonceRemote, m.nonceLocal)
		if j.TruncHMAC != want {
			return tcp.Reject
		}
		return tcp.Accept
	case tcp.StageACK: // passive side: authenticate the joiner
		if j == nil || j.Form != seg.JoinACK {
			return tcp.Ignore // wait for the HMAC-bearing ACK retransmission
		}
		want := seg.JoinHMAC(c.remoteKey, c.localKey, m.nonceRemote, m.nonceLocal)
		if j.FullHMAC != want {
			return tcp.Reject
		}
		return tcp.Accept
	}
	return tcp.Reject
}

// setRemoteKey installs the peer key and everything derived from it.
func (c *Connection) setRemoteKey(key uint64) {
	if c.remoteKey != 0 {
		return
	}
	c.remoteKey = key
	c.remoteToken = seg.Token(key)
	c.remoteIDSN = seg.IDSN(key)
}

// OnEstablished implements tcp.Owner.
func (c *Connection) OnEstablished(sf *tcp.Subflow) {
	if c.metaOf(sf).isInitial && !c.established {
		c.established = true
		c.ep.pm.ConnEstablished(c)
		if c.cb.OnEstablished != nil {
			c.cb.OnEstablished(c)
		}
		if c.onAccept != nil {
			c.onAccept(c)
		}
	}
	if c.tsh != nil {
		var fl uint8
		if sf.Backup() {
			fl = trace.FBackup
		}
		c.tsh.Rec(c.ep.sim.Now(), trace.KSubAdd, sf.TraceID(), 0, 0, 0, fl)
	}
	c.ep.pm.SubflowEstablished(c, sf)
	c.push()
}

// OnSegment implements tcp.Owner.
func (c *Connection) OnSegment(sf *tcp.Subflow, s *seg.Segment, hasNew bool) {
	for _, o := range s.Options {
		switch opt := o.(type) {
		case *seg.DSS:
			c.handleDSS(sf, s, opt, hasNew)
		case *seg.AddAddr:
			if c.remoteAddrs == nil {
				c.remoteAddrs = make(map[uint8]netip.AddrPort)
			}
			c.remoteAddrs[opt.AddrID] = netip.AddrPortFrom(opt.Addr, opt.Port)
			c.ep.pm.AddrAnnounced(c, opt.AddrID, opt.Addr, opt.Port)
		case *seg.RemoveAddr:
			for _, id := range opt.AddrIDs {
				delete(c.remoteAddrs, id)
				c.ep.pm.AddrRemoved(c, id)
			}
		case *seg.MPPrio:
			sf.SetBackup(opt.Backup)
			c.push()
		case *seg.FastClose:
			if opt.ReceiverKey == c.localKey {
				for _, s := range append([]*tcp.Subflow(nil), c.subflows...) {
					s.Abort(tcp.ECONNRESET)
				}
				c.connClosed()
				return
			}
		}
	}
	c.checkCloseProgress()
}

func (c *Connection) handleDSS(sf *tcp.Subflow, s *seg.Segment, d *seg.DSS, hasNew bool) {
	if d.HasDataAck && c.established {
		rel := c.absToRelLocal(d.DataAck)
		limit := c.appNxt
		if c.finQueued {
			limit++
		}
		if rel > c.sndUna && rel <= limit {
			c.sndUna = rel
			c.reinject.remove(0, c.sndUna)
			if c.cb.OnDataAck != nil {
				c.cb.OnDataAck(c, c.SndUna())
			}
		}
	}
	if d.HasMap && hasNew {
		lo := c.absToRelRemote(d.DataSeq)
		hi := lo + uint64(d.MapLen)
		if d.DataFIN {
			c.peerFinSeen = true
			c.peerFinRel = hi - 1
		}
		advanced := c.rcv.receive(lo, hi)
		c.ep.totals.ReassemblyOOHW = max(c.ep.totals.ReassemblyOOHW, c.rcv.ooo.bytes())
		if c.tsh != nil {
			var fl uint8
			if advanced {
				fl = trace.FAdvance
			}
			c.tsh.Rec(c.ep.sim.Now(), trace.KReassm, c.tid, lo, uint32(d.MapLen), c.rcv.nxt, fl)
		}
		if advanced {
			if c.cb.OnData != nil {
				c.cb.OnData(c, c.RcvBytes())
			}
			if c.peerFinSeen && c.rcv.nxt > c.peerFinRel && !c.peerClosed {
				c.peerClosed = true
				if c.cb.OnPeerClose != nil {
					c.cb.OnPeerClose(c)
				}
			}
		}
	}
}

// CurrentDataAck implements tcp.Owner.
func (c *Connection) CurrentDataAck() (uint64, bool) {
	if !c.established {
		return 0, false
	}
	return c.remoteIDSN + 1 + c.rcv.nxt, true
}

// OnAckAdvance implements tcp.Owner.
func (c *Connection) OnAckAdvance(sf *tcp.Subflow, acked []*tcp.Chunk) {
	c.push()
	c.checkCloseProgress()
}

// OnTimeout implements tcp.Owner: reinject the head-of-line data elsewhere
// (as the kernel's retransmit timer does), then surface the paper's
// timeout event to the path manager.
func (c *Connection) OnTimeout(sf *tcp.Subflow, rto time.Duration, backoffs int) {
	c.reinjectHead(sf)
	c.ep.pm.Timeout(c, sf, rto, backoffs)
	c.push()
}

// OnClosed implements tcp.Owner.
func (c *Connection) OnClosed(sf *tcp.Subflow, reason tcp.Errno) {
	c.tsh.Rec(c.ep.sim.Now(), trace.KSubDel, sf.TraceID(), 0, 0, uint64(int64(reason)), 0)
	c.reinjectSubflowData(sf)
	c.removeSubflow(sf)
	c.stats.SubflowsClosed++
	// Fold the subflow's counters before retire: Reuse zeroes them.
	c.ep.totals.addSubflow(sf.Info().Stats)
	if !c.closed {
		c.retire(sf)
	}
	c.ep.pm.SubflowClosed(c, sf, reason)
	if !c.closed {
		c.push()
		c.maybeFullyClosed()
	}
}

// --- Close handling ---

// checkCloseProgress shuts subflows down once both directions' DATA_FINs
// are exchanged and acknowledged.
func (c *Connection) checkCloseProgress() {
	if c.closed || !c.finQueued || !c.peerFinSeen {
		return
	}
	finAcked := c.sndUna >= c.finRel+1
	peerFinConsumed := c.rcv.nxt >= c.peerFinRel+1
	if !finAcked || !peerFinConsumed {
		return
	}
	// Close only marks the subflow closing and sends what it may (data,
	// then its FIN); the subflow dies in a later event, so c.subflows
	// cannot shrink under the loop.
	for _, sf := range c.subflows {
		sf.Close()
	}
	c.maybeFullyClosed()
}

// maybeFullyClosed finishes the connection once a close was requested and
// every subflow is gone.
func (c *Connection) maybeFullyClosed() {
	if c.closed || len(c.subflows) > 0 {
		return
	}
	if c.finQueued && c.peerFinSeen && c.sndUna >= c.finRel+1 && c.rcv.nxt >= c.peerFinRel+1 {
		c.connClosed()
	}
}

// connClosed tears the connection down exactly once.
func (c *Connection) connClosed() {
	if c.closed {
		return
	}
	c.closed = true
	c.spares = [2]spare{}
	c.ep.totals.addConn(c.stats)
	c.ep.removeConn(c)
	c.ep.pm.ConnClosed(c)
	if c.cb.OnClosed != nil {
		c.cb.OnClosed(c)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
