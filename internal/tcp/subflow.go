package tcp

import (
	"math"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is the subflow TCP state (a pragmatic subset of RFC 793).
type State uint8

// Subflow states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait // we sent FIN, waiting for it to be acked and/or peer FIN
	StateDead    // terminal; OnClosed has fired
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateSynSent:
		return "SYN_SENT"
	case StateSynRcvd:
		return "SYN_RCVD"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateDead:
		return "DEAD"
	}
	return "?"
}

// Stage identifies the handshake message being built or inspected.
type Stage int

// Handshake stages.
const (
	StageSYN Stage = iota
	StageSYNACK
	StageACK
)

// Output transmits a segment onto the network (the MPTCP endpoint wires
// this to the owning netem host). Ownership of the segment transfers to
// the callee: the subflow never touches a segment after handing it off,
// so the network may retire it to the segment pool once consumed.
type Output func(*seg.Segment)

// Verdict is the owner's decision about a handshake segment.
type Verdict int

// Handshake verdicts.
const (
	// Accept lets the handshake proceed.
	Accept Verdict = iota
	// Reject aborts the subflow with a RST (authentication failure).
	Reject
	// Ignore drops the segment without state change; the peer's
	// retransmissions will retry the handshake step.
	Ignore
)

// Owner is the Multipath TCP connection a subflow belongs to. It supplies
// handshake options (MP_CAPABLE / MP_JOIN material), validates the peer's,
// consumes inbound segments (DSS processing, ADD_ADDR, ...), supplies the
// connection-level data ACK for outbound segments, and learns about ACK
// progress, retransmission timeouts and subflow death — the raw material
// for the paper's path-manager events.
type Owner interface {
	// HandshakeOptions returns the MPTCP options to attach at a stage. The
	// slice and the options are only on loan: the subflow copies them into
	// the handshake segment's own storage (seg.Segment.AppendOptions)
	// before it calls the owner again, so the owner may hand out the same
	// scratch every time.
	HandshakeOptions(sf *Subflow, st Stage) []seg.Option
	// HandshakeAccept validates the peer's handshake segment.
	HandshakeAccept(sf *Subflow, s *seg.Segment, st Stage) Verdict
	// OnEstablished fires once the three-way handshake completes.
	OnEstablished(sf *Subflow)
	// OnSegment delivers every inbound segment once established;
	// hasNewData reports whether the payload contained new subflow bytes.
	// The segment (and its options) is only on loan for the duration of
	// the call: the delivering endpoint retires it to the pool afterwards,
	// so implementations must copy anything they keep.
	OnSegment(sf *Subflow, s *seg.Segment, hasNewData bool)
	// CurrentDataAck supplies the connection-level DATA_ACK for outbound
	// segments; ok=false omits it.
	CurrentDataAck() (uint64, bool)
	// OnAckAdvance fires when the cumulative ACK moved (window opened);
	// acked lists the chunks now fully acknowledged at subflow level.
	// The chunks are recycled when the call returns — read, don't retain.
	OnAckAdvance(sf *Subflow, acked []*Chunk)
	// OnTimeout fires on every retransmission timer expiry with the
	// *backed-off* RTO now in force and the consecutive-backoff count.
	OnTimeout(sf *Subflow, rto time.Duration, backoffs int)
	// OnClosed fires exactly once when the subflow dies; reason is Ok for
	// a graceful close. The handle stays valid until the event that runs
	// OnClosed returns, and not after: from the next event on, the owner
	// may hand the object out again (Reuse) as another subflow, so nothing
	// may keep it past that event.
	OnClosed(sf *Subflow, reason Errno)
}

// Config tunes a subflow. The zero value is usable: defaults mirror Linux.
type Config struct {
	MSS           int    // payload bytes per segment (default 1380)
	InitialWindow int    // initial cwnd in segments (default 10)
	RcvWnd        uint32 // advertised receive window bytes (default 4 MiB)
	MaxBackoffs   int    // consecutive RTO backoffs before death (default 15, at most maxRetries)
	SynRetries    int    // SYN (or SYN+ACK) retransmissions before death (default 6, at most maxRetries)
}

// maxRetries bounds MaxBackoffs and SynRetries: a subflow counts both in a
// byte, as Linux does (icsk_backoff, icsk_retransmits), and the count runs
// one past the limit before the subflow dies.
const maxRetries = math.MaxUint8 - 1

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1380
	}
	if c.InitialWindow == 0 {
		c.InitialWindow = 10
	}
	if c.RcvWnd == 0 {
		c.RcvWnd = 4 << 20
	}
	if c.MaxBackoffs == 0 {
		c.MaxBackoffs = 15
	}
	if c.SynRetries == 0 {
		c.SynRetries = 6
	}
	c.MaxBackoffs = min(c.MaxBackoffs, maxRetries)
	c.SynRetries = min(c.SynRetries, maxRetries)
	return c
}

// Shared is what every subflow of one endpoint has in common: the
// configuration, defaults applied once, the output, and the scratch buffers
// an ACK is processed in. An mptcp.Endpoint holds one by value, so each of
// its subflows pays one pointer for it and no allocation.
//
// The scratch cannot be re-entered. A subflow fills it only while it
// handles an inbound ACK (processSACK, then processAck, both reached only
// from HandleSegment) and is done with it when HandleSegment returns.
// Inside that span it calls its owner (OnAckAdvance, and OnClosed if it
// dies), and the owner may push onto, close or abort any subflow of the
// endpoint: all of that sends, and none of it handles a segment. Segments
// reach a subflow only from the network's own events, never from inside
// another subflow's call, so no two subflows of one Shared are inside
// HandleSegment at once. An Output that delivered synchronously into a
// subflow of the same Shared would break this; netem never does.
type Shared struct {
	cfg Config
	out Output

	chunks []*Chunk    // ackThrough's and applySACK's result
	sack   []sackRange // the SACK blocks of the segment being handled
}

// Init sets up a Shared for subflows configured by cfg that transmit
// through out.
func (sh *Shared) Init(cfg Config, out Output) {
	*sh = Shared{cfg: cfg.withDefaults(), out: out}
}

// Config reports the configuration, with its defaults applied.
func (sh *Shared) Config() Config { return sh.cfg }

// NewSubflow creates a subflow bound to tuple that shares sh; see the
// package-level NewSubflow.
func (sh *Shared) NewSubflow(c sim.Clock, tuple seg.FourTuple, owner Owner) *Subflow {
	sf := new(Subflow)
	sf.init(c, sh, tuple, owner)
	return sf
}

// Stats counts subflow activity (a subset of what TCP_INFO exposes).
type Stats struct {
	SegsSent     uint64
	SegsRcvd     uint64
	BytesSent    uint64 // payload bytes, first transmissions only
	BytesRetrans uint64
	BytesAcked   uint64
	Retrans      uint64 // retransmitted segments (RTO-driven)
	FastRetrans  uint64
	Timeouts     uint64 // RTO expirations
}

// Subflow is one TCP subflow of a Multipath TCP connection.
//
// At 512 bytes it fills the 512-byte size class with no malloc header
// (TestSubflowSizeClass), one byte more moves every subflow up a class, so
// what the subflows of an endpoint share sits behind sh, the clock is read
// through rtoTimer, and the counters whose bound is structural are bytes.
type Subflow struct {
	sh    *Shared
	owner Owner
	tuple seg.FourTuple

	// Address IDs used in MP_JOIN / ADD_ADDR bookkeeping.
	LocalAddrID  uint8
	RemoteAddrID uint8

	state  State
	backup bool

	iss     uint32 // initial send sequence number
	sndUna  uint32
	sndNxt  uint32
	rcv     rcvQueue
	peerWnd uint32
	pushNxt uint32 // next subflow sequence number to assign to pushed data

	sq sendQueue
	// The congestion controller, the estimator and the timers live in the
	// subflow, not behind pointers: a subflow is one object, and creating
	// one allocates it and nothing else.
	reno Reno
	rtt  RTTEstimator
	// rtoTimer is the SYN retransmission timer until the handshake ends
	// and the data RTO from then on: becomeEstablished stops the one before
	// anything can arm the other, so the two never needed an Event each.
	rtoTimer   sim.Timer
	paceTimer  sim.Timer
	backoffs   uint8
	dupAcks    uint8
	synRexmits uint8

	// SACK-based loss recovery (RFC 2018 / RFC 6675).
	inRecovery    bool
	recoveryPoint uint32
	highSacked    uint32

	closing  bool // local Close requested
	finSent  bool
	finAcked bool
	finRcvd  bool
	finSeq   uint32
	tid      uint32 // trace entity id, with tsh

	synSentAt sim.Time
	estabAt   sim.Time
	stats     Stats

	// Trace recording (nil shard = tracing off; every hook is a
	// nil-guarded store into a preallocated ring, never an allocation).
	tsh *trace.Shard
}

// NewSubflow creates a subflow bound to tuple, with a Shared of its own
// allocated with it: still one object. It starts closed; call Connect for
// the active side or HandleSegment with the peer's SYN for the passive side.
func NewSubflow(c sim.Clock, cfg Config, tuple seg.FourTuple, out Output, owner Owner) *Subflow {
	own := new(struct {
		Subflow
		sh Shared
	})
	own.sh.Init(cfg, out)
	own.init(c, &own.sh, tuple, owner)
	return &own.Subflow
}

// Reuse turns a dead subflow into what sh.NewSubflow(c, tuple, owner) would
// return, allocating nothing. The caller must own the only live handle:
// every holder of the old one was done with it when the event that ran its
// OnClosed returned (Owner).
func (sf *Subflow) Reuse(c sim.Clock, sh *Shared, tuple seg.FourTuple, owner Owner) {
	if sf.state != StateDead {
		panic("tcp: Reuse of a subflow that is not dead: " + sf.String())
	}
	sf.init(c, sh, tuple, owner)
}

// init resets every field, as a fresh allocation would have them, and
// keeps only the capacity of the queues' backing arrays (cleared, so a
// reused subflow holds no stale chunk).
func (sf *Subflow) init(c sim.Clock, sh *Shared, tuple seg.FourTuple, owner Owner) {
	buf, ooo := sf.sq.buf[:0], sf.rcv.ooo[:0]
	clear(buf[:cap(buf)])
	*sf = Subflow{
		sh:      sh,
		owner:   owner,
		tuple:   tuple,
		rcv:     rcvQueue{ooo: ooo},
		peerWnd: sh.cfg.RcvWnd,
		sq:      sendQueue{buf: buf},
		reno:    *NewReno(sh.cfg.MSS, sh.cfg.InitialWindow),
		rtt:     *NewRTTEstimator(),
	}
	sf.rtoTimer.Init(c, fireRTO, sf)
	sf.paceTimer.Init(c, firePace, sf)
}

// clock is the subflow's clock, which its timers hold already.
func (sf *Subflow) clock() sim.Clock { return sf.rtoTimer.Clock() }

// The timer callbacks are package-level functions taking the subflow, so
// binding them allocates no method closure.
func fireRTO(x any) {
	if sf := x.(*Subflow); sf.Established() {
		sf.onRTO()
	} else {
		sf.onSynTimeout()
	}
}
func firePace(sf any) { sf.(*Subflow).sendLoop() }

// String identifies the subflow by its 4-tuple.
func (sf *Subflow) String() string { return sf.tuple.String() }

// Accessors.

// Tuple reports the subflow's 4-tuple.
func (sf *Subflow) Tuple() seg.FourTuple { return sf.tuple }

// SetTrace binds the subflow to a trace shard under the given entity
// id. The owner (the MPTCP connection) registers the entity and calls
// this at subflow creation; a nil shard leaves tracing off.
func (sf *Subflow) SetTrace(sh *trace.Shard, id uint32) {
	sf.tsh = sh
	sf.tid = id
}

// TraceID reports the subflow's trace entity id (0 = untraced).
func (sf *Subflow) TraceID() uint32 { return sf.tid }

// traceCC records the congestion state (SRTT, flight, cwnd) after an
// update — the raw material of the analyzer's RTT/cwnd time series.
func (sf *Subflow) traceCC() {
	if sf.tsh == nil {
		return
	}
	sf.tsh.Rec(sf.clock().Now(), trace.KCC, sf.tid,
		uint64(sf.rtt.SRTT()), uint32(sf.sq.flight()), uint64(sf.reno.Cwnd()), 0)
}

// State reports the current TCP state.
func (sf *Subflow) State() State { return sf.state }

// Backup reports the subflow's backup priority flag.
func (sf *Subflow) Backup() bool { return sf.backup }

// SetBackup sets the local view of the backup flag (MP_PRIO handling and
// join options are the owner's business).
func (sf *Subflow) SetBackup(b bool) { sf.backup = b }

// MSS reports the configured segment payload size.
func (sf *Subflow) MSS() int { return sf.sh.cfg.MSS }

// SynSentAt reports when the SYN was first transmitted (Fig. 3 measures
// from this instant).
func (sf *Subflow) SynSentAt() sim.Time { return sf.synSentAt }

// EstablishedAt reports when the handshake completed (zero until then).
func (sf *Subflow) EstablishedAt() sim.Time { return sf.estabAt }

// Established reports whether data can flow.
func (sf *Subflow) Established() bool {
	return sf.state == StateEstablished || sf.state == StateFinWait
}

// SRTT exposes the smoothed RTT estimate.
func (sf *Subflow) SRTT() time.Duration { return sf.rtt.SRTT() }

// CurrentRTO reports the retransmission timeout now in force, including
// exponential backoff — the value the paper's timeout event reports.
func (sf *Subflow) CurrentRTO() time.Duration {
	return BackoffRTO(sf.rtt.RTO(), int(sf.backoffs))
}

// Backoffs reports the consecutive RTO backoff count.
func (sf *Subflow) Backoffs() int { return int(sf.backoffs) }

// Flight reports bytes in flight (sent, unacked, not marked lost).
func (sf *Subflow) Flight() int { return sf.sq.flight() }

// QueuedUnsent reports payload bytes pushed but never transmitted.
func (sf *Subflow) QueuedUnsent() int { return sf.sq.unsentBytes() }

// AvailableCwnd reports how many further payload bytes the scheduler may
// push right now without overrunning the congestion or peer window.
func (sf *Subflow) AvailableCwnd() int {
	if !sf.Established() || sf.closing {
		return 0
	}
	wnd := sf.reno.Cwnd()
	if int(sf.peerWnd) < wnd {
		wnd = int(sf.peerWnd)
	}
	used := sf.sq.flight() + sf.sq.unsentBytes()
	if used >= wnd {
		return 0
	}
	return wnd - used
}

// UnackedChunks lists the chunks not yet acknowledged at subflow level, in
// sequence order. The MPTCP connection uses it to reinject data elsewhere.
func (sf *Subflow) UnackedChunks() []*Chunk { return sf.sq.all() }

// PacingRate estimates the subflow's sending rate in bytes/second the way
// Linux computes sk_pacing_rate: cwnd/srtt scaled by 2 in slow start and
// 1.2 in congestion avoidance. Zero before the first RTT sample.
func (sf *Subflow) PacingRate() float64 {
	srtt := sf.rtt.SRTT()
	if srtt <= 0 {
		return 0
	}
	factor := 1.2
	if sf.reno.InSlowStart() {
		factor = 2.0
	}
	return factor * float64(sf.reno.Cwnd()) / srtt.Seconds()
}

// Info returns a TCP_INFO-style snapshot (what the paper's get-info command
// retrieves from the kernel).
func (sf *Subflow) Info() Info {
	return Info{
		Tuple:         sf.tuple,
		State:         sf.state,
		Backup:        sf.backup,
		SndUna:        sf.sndUna,
		SndNxt:        sf.sndNxt,
		RcvNxt:        sf.rcv.nxt,
		Cwnd:          sf.reno.Cwnd(),
		SSThresh:      sf.reno.SSThresh(),
		SRTT:          sf.rtt.SRTT(),
		RTTVar:        sf.rtt.RTTVar(),
		RTO:           sf.CurrentRTO(),
		Backoffs:      int(sf.backoffs),
		PacingRate:    sf.PacingRate(),
		Flight:        sf.Flight(),
		QueuedUnsent:  sf.QueuedUnsent(),
		EstablishedAt: sf.estabAt,
		Stats:         sf.stats,
	}
}

// --- Active/passive open ---

// Connect starts the active handshake, transmitting a SYN carrying the
// owner's options (MP_CAPABLE for an initial subflow, MP_JOIN otherwise).
func (sf *Subflow) Connect() {
	if sf.state != StateClosed {
		return
	}
	sf.iss = uint32(sf.clock().Rand().Int63())
	sf.sndUna = sf.iss
	sf.sndNxt = sf.iss + 1
	sf.state = StateSynSent
	sf.synSentAt = sf.clock().Now()
	sf.sendSYN()
	sf.armSynTimer()
}

// sendSYN transmits the handshake segment of the current state: the SYN in
// SYN_SENT, the SYN+ACK in SYN_RCVD. A retransmission builds it again
// instead of cloning a retained copy — every field, the owner's options
// included, is a function of state that is fixed until the handshake ends —
// so the segment and its options live in the pooled segment alone.
func (sf *Subflow) sendSYN() {
	s := seg.Shared.Get()
	s.Tuple = sf.tuple
	s.Seq = sf.iss
	s.Flags = seg.SYN
	s.Window = sf.sh.cfg.RcvWnd
	st := StageSYN
	if sf.state == StateSynRcvd {
		s.Ack = sf.rcv.nxt
		s.Flags |= seg.ACK
		st = StageSYNACK
	}
	s.AppendOptions(sf.owner.HandshakeOptions(sf, st))
	sf.transmit(s)
}

// sendHandshakeACK transmits the third handshake ACK with its stage-ACK
// options (both keys for MP_CAPABLE, the full HMAC for MP_JOIN).
func (sf *Subflow) sendHandshakeACK() {
	ack := seg.Shared.Get()
	ack.Tuple = sf.tuple
	ack.Seq = sf.sndNxt
	ack.Ack = sf.rcv.nxt
	ack.Flags = seg.ACK
	ack.Window = sf.sh.cfg.RcvWnd
	ack.AppendOptions(sf.owner.HandshakeOptions(sf, StageACK))
	sf.transmit(ack)
}

// handleSYN performs the passive open for an inbound SYN.
func (sf *Subflow) handleSYN(s *seg.Segment) {
	switch sf.owner.HandshakeAccept(sf, s, StageSYN) {
	case Reject:
		sf.sendRST(s)
		sf.die(ECONNREFUSED)
		return
	case Ignore:
		return
	}
	sf.synSentAt = sf.clock().Now()
	sf.rcv.nxt = s.Seq + 1
	sf.peerWnd = s.Window
	sf.iss = uint32(sf.clock().Rand().Int63())
	sf.sndUna = sf.iss
	sf.sndNxt = sf.iss + 1
	sf.state = StateSynRcvd
	sf.sendSYN()
	sf.armSynTimer()
}

func (sf *Subflow) armSynTimer() {
	d := InitialRTO
	for i := 0; i < int(sf.synRexmits); i++ {
		d *= 2
	}
	sf.rtoTimer.Reset(d)
}

func (sf *Subflow) onSynTimeout() {
	if sf.state != StateSynSent && sf.state != StateSynRcvd {
		return
	}
	sf.synRexmits++
	if int(sf.synRexmits) > sf.sh.cfg.SynRetries {
		sf.die(ETIMEDOUT)
		return
	}
	sf.stats.Retrans++
	sf.sendSYN()
	sf.armSynTimer()
}

// --- Data path ---

// Push queues ln payload bytes covering connection data sequence dataSeq
// and transmits as the window allows. dataFIN marks the mapping that
// carries the connection-level FIN. It returns the chunk for bookkeeping;
// the chunk stays owned by the subflow and is recycled once acked, so
// callers must not retain it past the next ack/close callback.
func (sf *Subflow) Push(dataSeq uint64, ln int, dataFIN bool) *Chunk {
	c := newChunk(sf.pushNxt, ln, dataSeq, dataFIN)
	sf.pushNxt += uint32(ln)
	sf.sq.push(c)
	sf.trySend()
	return c
}

// trySend transmits whatever the congestion and peer windows allow,
// retransmitting lost chunks first. Transmissions are paced at the
// sk_pacing_rate estimate, which is what keeps
// the stack from dumping window-sized bursts into drop-tail queues — the
// behaviour of Linux since the pacing work the paper cites [4].
func (sf *Subflow) trySend() {
	if !sf.Established() {
		return
	}
	if sf.paceTimer.Armed() {
		// The pacer owns the transmit loop until its next tick.
		sf.armRTO()
		return
	}
	sf.sendLoop()
}

// sendLoop is the (possibly pacer-resumed) transmit loop.
func (sf *Subflow) sendLoop() {
	if !sf.Established() {
		return
	}
	for {
		c := sf.sq.nextToSend()
		if c == nil {
			break
		}
		wnd := sf.reno.Cwnd()
		if int(sf.peerWnd) < wnd {
			wnd = int(sf.peerWnd)
		}
		flight := sf.sq.flight()
		if flight > 0 && flight+c.Len > wnd {
			break
		}
		sf.sendChunk(c)
		if gap, ok := sf.paceGap(c.Len); ok {
			sf.paceTimer.Reset(gap)
			break
		}
	}
	sf.maybeSendFIN()
	sf.armRTO()
}

// paceGap computes the inter-segment spacing for the pacer; ok is false
// when no rate estimate exists yet (initial-window burst).
func (sf *Subflow) paceGap(segLen int) (time.Duration, bool) {
	rate := sf.PacingRate()
	if rate <= 0 {
		return 0, false
	}
	gap := time.Duration(float64(segLen) / rate * float64(time.Second))
	if gap < time.Microsecond {
		return 0, false
	}
	const maxGap = 100 * time.Millisecond // keep collapsed-cwnd senders alive
	if gap > maxGap {
		gap = maxGap
	}
	return gap, true
}

func (sf *Subflow) sendChunk(c *Chunk) {
	retrans := sf.sq.transmitted(c, sf.clock().Now())
	if retrans {
		sf.stats.Retrans++
		sf.stats.BytesRetrans += uint64(c.Len)
	} else {
		if end := c.SubSeq + uint32(c.Len); seqLT(sf.sndNxt, end) {
			sf.sndNxt = end
		}
		sf.stats.BytesSent += uint64(c.Len)
	}
	if sf.tsh != nil {
		var fl uint8
		if retrans {
			fl = trace.FRetrans
		}
		sf.tsh.Rec(c.sentAt, trace.KSend, sf.tid, uint64(c.SubSeq), uint32(c.Len), c.DataSeq, fl)
	}
	s := seg.Shared.Get()
	s.Tuple = sf.tuple
	s.Seq = c.SubSeq
	s.Ack = sf.rcv.nxt
	s.Flags = seg.ACK | seg.PSH
	s.Window = sf.sh.cfg.RcvWnd
	s.PayloadLen = c.Len
	dss := s.ScratchDSS()
	dss.HasMap = true
	dss.DataSeq = c.DataSeq
	dss.SubflowSeq = c.SubSeq - (sf.iss + 1)
	dss.MapLen = uint16(c.Len)
	dss.DataFIN = c.DataFIN
	if ack, ok := sf.owner.CurrentDataAck(); ok {
		dss.HasDataAck = true
		dss.DataAck = ack
	}
	sf.transmit(s)
}

func (sf *Subflow) maybeSendFIN() {
	if !sf.closing || sf.finSent || !sf.sq.empty() || sf.state != StateEstablished && sf.state != StateFinWait {
		return
	}
	sf.finSent = true
	sf.finSeq = sf.sndNxt
	sf.sndNxt++
	sf.state = StateFinWait
	fin := seg.Shared.Get()
	fin.Tuple = sf.tuple
	fin.Seq = sf.finSeq
	fin.Ack = sf.rcv.nxt
	fin.Flags = seg.FIN | seg.ACK
	fin.Window = sf.sh.cfg.RcvWnd
	sf.transmit(fin)
}

func (sf *Subflow) sendAck() {
	s := seg.Shared.Get()
	s.Tuple = sf.tuple
	s.Seq = sf.sndNxt
	s.Ack = sf.rcv.nxt
	s.Flags = seg.ACK
	s.Window = sf.sh.cfg.RcvWnd
	if ack, ok := sf.owner.CurrentDataAck(); ok {
		d := s.ScratchDSS()
		d.HasDataAck = true
		d.DataAck = ack
	}
	// Report out-of-order data so the sender can repair loss bursts
	// without collapsing to an RTO (three blocks fit alongside the DSS).
	if blocks := sf.rcv.sackBlocks(3); len(blocks) > 0 {
		sk := s.ScratchSACK()
		for _, b := range blocks {
			sk.Blocks = append(sk.Blocks, seg.SackBlock{Lo: b.lo, Hi: b.hi})
		}
	}
	sf.transmit(s)
}

// SendOptions emits a pure ACK carrying arbitrary MPTCP options (ADD_ADDR,
// MP_PRIO, REMOVE_ADDR announcements ride on these). Ownership of the
// options transfers to the network.
func (sf *Subflow) SendOptions(opts ...seg.Option) {
	if !sf.Established() {
		return
	}
	s := seg.Shared.Get()
	s.Tuple = sf.tuple
	s.Seq = sf.sndNxt
	s.Ack = sf.rcv.nxt
	s.Flags = seg.ACK
	s.Window = sf.sh.cfg.RcvWnd
	s.Options = append(s.Options, opts...)
	sf.transmit(s)
}

// transmit hands s to the network, transferring ownership: the subflow
// must not touch s afterwards (the receiving endpoint retires it to the
// segment pool once handled).
func (sf *Subflow) transmit(s *seg.Segment) {
	sf.stats.SegsSent++
	sf.sh.out(s)
}

// --- Close paths ---

// Close requests a graceful close: queued data drains, then a FIN.
func (sf *Subflow) Close() {
	if sf.state == StateDead || sf.closing {
		return
	}
	sf.closing = true
	sf.trySend()
}

// Abort sends a RST to the peer and kills the subflow immediately with the
// given reason (ECONNABORTED for path-manager-initiated removal).
func (sf *Subflow) Abort(reason Errno) {
	if sf.state == StateDead {
		return
	}
	if sf.state == StateEstablished || sf.state == StateFinWait || sf.state == StateSynRcvd {
		rst := seg.Shared.Get()
		rst.Tuple = sf.tuple
		rst.Seq = sf.sndNxt
		rst.Ack = sf.rcv.nxt
		rst.Flags = seg.RST | seg.ACK
		sf.transmit(rst)
	}
	sf.die(reason)
}

func (sf *Subflow) sendRST(cause *seg.Segment) {
	rst := seg.Shared.Get()
	rst.Tuple = cause.Tuple.Reverse()
	rst.Seq = cause.Ack
	rst.Ack = cause.SeqEnd()
	rst.Flags = seg.RST | seg.ACK
	sf.transmit(rst)
}

func (sf *Subflow) die(reason Errno) {
	if sf.state == StateDead {
		return
	}
	sf.state = StateDead
	sf.rtoTimer.Stop()
	sf.paceTimer.Stop()
	sf.owner.OnClosed(sf, reason)
	// The owner has reinjected whatever it wanted (OnClosed reads
	// UnackedChunks); the remaining queue can be recycled now.
	putChunks(sf.sq.clear())
}

// --- Inbound ---

// HandleSegment processes one inbound segment (the endpoint demultiplexes
// by 4-tuple and calls this).
func (sf *Subflow) HandleSegment(s *seg.Segment) {
	sf.stats.SegsRcvd++
	if sf.tsh != nil {
		sf.tsh.Rec(sf.clock().Now(), trace.KRecv, sf.tid, uint64(s.Seq), uint32(s.PayloadLen), uint64(s.Ack), 0)
	}
	switch sf.state {
	case StateClosed:
		if s.Is(seg.SYN) && !s.Is(seg.ACK) {
			sf.handleSYN(s)
		}
	case StateSynSent:
		sf.handleSynSent(s)
	case StateSynRcvd:
		sf.handleSynRcvd(s)
	case StateEstablished, StateFinWait:
		sf.handleEstablished(s)
	case StateDead:
		// Late segments to a dead subflow get a RST so the peer cleans up.
		if !s.Is(seg.RST) {
			sf.sendRST(s)
		}
	}
}

func (sf *Subflow) handleSynSent(s *seg.Segment) {
	if s.Is(seg.RST) {
		sf.die(ECONNREFUSED)
		return
	}
	if !s.Is(seg.SYN|seg.ACK) || s.Ack != sf.sndNxt {
		return
	}
	switch sf.owner.HandshakeAccept(sf, s, StageSYNACK) {
	case Reject:
		sf.sendRST(s)
		sf.die(ECONNREFUSED)
		return
	case Ignore:
		return
	}
	sf.rcv.nxt = s.Seq + 1
	sf.sndUna = s.Ack
	sf.peerWnd = s.Window
	if sf.synRexmits == 0 {
		// The SYN↔SYN+ACK exchange is a clean RTT sample (Karn holds).
		sf.rtt.Sample(time.Duration(sf.clock().Now() - sf.synSentAt))
	}
	// The third handshake ACK must be transmitted before OnEstablished
	// runs: a path manager may react by opening a join, and that SYN must
	// not overtake this ACK on the wire.
	sf.sendHandshakeACK()
	sf.becomeEstablished()
}

func (sf *Subflow) handleSynRcvd(s *seg.Segment) {
	if s.Is(seg.RST) {
		sf.die(ECONNRESET)
		return
	}
	if s.Is(seg.SYN) && !s.Is(seg.ACK) {
		// Duplicate SYN: retransmit our SYN+ACK.
		sf.stats.Retrans++
		sf.sendSYN()
		return
	}
	if !s.Is(seg.ACK) || s.Ack != sf.sndNxt {
		return
	}
	switch sf.owner.HandshakeAccept(sf, s, StageACK) {
	case Reject:
		sf.sendRST(s)
		sf.die(ECONNREFUSED)
		return
	case Ignore:
		return
	}
	sf.sndUna = s.Ack
	sf.peerWnd = s.Window
	if sf.synRexmits == 0 {
		sf.rtt.Sample(time.Duration(sf.clock().Now() - sf.synSentAt))
	}
	sf.becomeEstablished()
	if s.PayloadLen > 0 || len(s.Options) > 0 {
		sf.handleEstablished(s)
	}
}

func (sf *Subflow) becomeEstablished() {
	sf.state = StateEstablished
	sf.estabAt = sf.clock().Now()
	sf.synRexmits = 0
	sf.rtoTimer.Stop() // the SYN timer; see the field
	sf.pushNxt = sf.sndNxt
	sf.traceCC() // first RTT sample (handshake) and the initial window
	sf.owner.OnEstablished(sf)
	sf.trySend()
}

func (sf *Subflow) handleEstablished(s *seg.Segment) {
	if s.Is(seg.RST) {
		sf.die(ECONNRESET)
		return
	}
	if s.Is(seg.SYN | seg.ACK) {
		// Duplicate SYN+ACK: our third handshake ACK was lost. Re-send it
		// (with its stage-ACK options) so the passive side can establish.
		sf.stats.Retrans++
		sf.sendHandshakeACK()
		return
	}
	if s.Is(seg.ACK) {
		sf.processAck(s)
		if sf.state == StateDead {
			return
		}
	}
	hasNew := false
	if s.PayloadLen > 0 {
		hasNew = sf.rcv.receive(s.Seq, s.PayloadLen)
	}
	if s.Is(seg.FIN) {
		finSeq := s.Seq + uint32(s.PayloadLen)
		if finSeq == sf.rcv.nxt {
			sf.rcv.nxt++
			sf.finRcvd = true
		}
	}
	sf.owner.OnSegment(sf, s, hasNew)
	if sf.state == StateDead {
		return
	}
	if s.PayloadLen > 0 || s.Is(seg.FIN) {
		sf.sendAck()
	}
	sf.checkCloseComplete()
}

func (sf *Subflow) processAck(s *seg.Segment) {
	sf.peerWnd = s.Window
	sf.processSACK(s)
	switch {
	case seqLT(sf.sndUna, s.Ack) && seqLEQ(s.Ack, sf.sndNxt):
		acked := sf.sq.ackThrough(s.Ack, sf.sh.chunks[:0])
		sf.sh.chunks = acked
		payloadAcked := 0
		for _, c := range acked {
			payloadAcked += c.Len
			// Chunks SACKed earlier were timed at SACK arrival; timing
			// them again here would fold in queue-wait, not path RTT.
			if c.rexmits == 0 && !c.sacked {
				sf.rtt.Sample(time.Duration(sf.clock().Now() - c.sentAt))
			}
		}
		sf.stats.BytesAcked += uint64(payloadAcked)
		sf.sndUna = s.Ack
		sf.dupAcks = 0
		sf.backoffs = 0 // forward progress resets the exponential backoff
		if sf.inRecovery && seqLEQ(sf.recoveryPoint, s.Ack) {
			sf.inRecovery = false
		}
		if sf.finSent && seqLT(sf.finSeq, s.Ack) {
			sf.finAcked = true
		}
		sf.reno.OnAck(payloadAcked)
		sf.traceCC()
		sf.restartRTO()
		sf.trySend()
		sf.owner.OnAckAdvance(sf, acked)
		sf.checkCloseComplete()
		// The acked chunks' lifecycle ends here: nothing retains them past
		// the OnAckAdvance callback, so they go back to the pool.
		putChunks(acked)
	case s.Ack == sf.sndUna && sf.sq.flight() > 0 && s.PayloadLen == 0 && !s.Is(seg.SYN) && !s.Is(seg.FIN):
		if sf.dupAcks < math.MaxUint8 { // saturates: only the third one counts
			sf.dupAcks++
		}
		if sf.dupAcks == 3 && !sf.inRecovery {
			sf.fastRetransmit()
		}
	}
}

// processSACK folds the segment's SACK blocks into the send queue, infers
// holes (RFC 6675: a chunk trailing the highest SACKed byte by three
// segments is lost), and enters loss recovery at most once per window.
func (sf *Subflow) processSACK(s *seg.Segment) {
	sk := s.SACK()
	if sk == nil || len(sk.Blocks) == 0 {
		return
	}
	blocks := sf.sh.sack[:0]
	for _, b := range sk.Blocks {
		blocks = append(blocks, sackRange{lo: b.Lo, hi: b.Hi})
	}
	sf.sh.sack = blocks
	high, newly := sf.sq.applySACK(blocks, sf.sh.chunks[:0])
	sf.sh.chunks = newly
	if len(newly) == 0 {
		return
	}
	for _, c := range newly {
		if c.rexmits == 0 {
			// A fresh SACK is a clean delivery timestamp: sample RTT now,
			// not when the cumulative ACK finally sweeps past.
			sf.rtt.Sample(time.Duration(sf.clock().Now() - c.sentAt))
		}
	}
	if seqLT(sf.highSacked, high) {
		sf.highSacked = high
	}
	if sf.sq.markSACKHoles(sf.highSacked, 2*sf.sh.cfg.MSS) && !sf.inRecovery {
		sf.inRecovery = true
		sf.recoveryPoint = sf.sndNxt
		sf.stats.FastRetrans++
		// ssthresh halves the window outstanding at loss detection, NOT
		// the post-SACK pipe (which the loss episode already shrank).
		sf.reno.OnDupAckLoss(sf.outstanding())
		sf.traceCC()
	}
	// SACKed bytes left the pipe: retransmit holes / send new data.
	sf.trySend()
}

// outstanding estimates the bytes between the cumulative ACK and the send
// frontier — the RFC 5681 FlightSize used for ssthresh computation.
func (sf *Subflow) outstanding() int {
	return int(sf.sndNxt - sf.sndUna)
}

func (sf *Subflow) fastRetransmit() {
	if sf.sq.empty() {
		return
	}
	sf.stats.FastRetrans++
	sf.inRecovery = true
	sf.recoveryPoint = sf.sndNxt
	sf.reno.OnDupAckLoss(sf.outstanding())
	sf.traceCC()
	front := sf.sq.front()
	if front.sent && !front.sacked {
		// The lost segment is retransmitted immediately, outside the
		// usual window check (it replaces bytes already counted).
		sf.sq.markLost(front)
		sf.sendChunk(front)
	}
	sf.armRTO()
}

func (sf *Subflow) checkCloseComplete() {
	if sf.state == StateFinWait && sf.finAcked && sf.finRcvd {
		sf.die(Ok)
	}
}

// --- RTO ---

// armRTO starts the retransmission timer if data is outstanding and it is
// not already running (RFC 6298 rule 5.1: starting is not restarting — a
// sender transmitting continuously must still let the timer expire for the
// stuck head-of-line byte).
func (sf *Subflow) armRTO() {
	if !sf.hasOutstanding() {
		sf.rtoTimer.Stop()
		return
	}
	if !sf.rtoTimer.Armed() {
		sf.rtoTimer.Reset(sf.CurrentRTO())
	}
}

// restartRTO re-arms the timer from now (on cumulative-ACK progress, RFC
// 6298 rule 5.3).
func (sf *Subflow) restartRTO() {
	if !sf.hasOutstanding() {
		sf.rtoTimer.Stop()
		return
	}
	sf.rtoTimer.Reset(sf.CurrentRTO())
}

func (sf *Subflow) hasOutstanding() bool {
	return sf.sq.flight() > 0 || len(sf.sq.all()) > 0 || (sf.finSent && !sf.finAcked)
}

func (sf *Subflow) onRTO() {
	if !sf.Established() {
		return
	}
	sf.stats.Timeouts++
	sf.backoffs++
	sf.sq.markAllLost()
	sf.reno.OnRTO(sf.outstanding())
	sf.traceCC()
	sf.dupAcks = 0
	sf.inRecovery = false // the RTO supersedes any SACK recovery episode
	rto := sf.CurrentRTO()
	sf.owner.OnTimeout(sf, rto, int(sf.backoffs))
	if sf.state == StateDead {
		return // the owner (path manager) may have removed us
	}
	if int(sf.backoffs) > sf.sh.cfg.MaxBackoffs {
		sf.die(ETIMEDOUT)
		return
	}
	// Go-back-N: retransmit from snd_una; FIN-only case retransmits FIN.
	if sf.sq.nextToSend() == nil && sf.finSent && !sf.finAcked {
		fin := seg.Shared.Get()
		fin.Tuple = sf.tuple
		fin.Seq = sf.finSeq
		fin.Ack = sf.rcv.nxt
		fin.Flags = seg.FIN | seg.ACK
		fin.Window = sf.sh.cfg.RcvWnd
		sf.stats.Retrans++
		sf.transmit(fin)
		sf.restartRTO()
		return
	}
	sf.trySend()
}
