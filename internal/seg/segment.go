// Package seg models TCP segments and the Multipath TCP options defined by
// RFC 6824 (MP_CAPABLE, MP_JOIN, DSS, ADD_ADDR, REMOVE_ADDR, MP_PRIO,
// MP_FAIL, MP_FASTCLOSE).
//
// Segments have two representations, in the style of gopacket's layered
// decode: an in-memory struct used by the simulator (cheap, no allocation of
// payload bytes — data is carried as a length plus a data-sequence mapping),
// and a faithful binary wire form produced by AppendWire and consumed by
// UnmarshalInto. The wire form is what crosses the socket transport in
// cmd/smappd and what all round-trip property tests exercise.
package seg

import (
	"fmt"
	"net/netip"
	"strings"
)

// Flags is the TCP flag byte (we model the six classical flags).
type Flags uint8

// TCP header flags.
const (
	FIN Flags = 1 << 0
	SYN Flags = 1 << 1
	RST Flags = 1 << 2
	PSH Flags = 1 << 3
	ACK Flags = 1 << 4
	URG Flags = 1 << 5
)

// String renders the flag set like "SYN|ACK".
func (f Flags) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Flags
		name string
	}{{SYN, "SYN"}, {ACK, "ACK"}, {FIN, "FIN"}, {RST, "RST"}, {PSH, "PSH"}, {URG, "URG"}} {
		if f&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// FourTuple identifies a TCP subflow. It is the unit the paper's subflow
// controller manipulates: subflows are created from and removed by an
// arbitrary 4-tuple.
type FourTuple struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the tuple as seen from the other end.
func (ft FourTuple) Reverse() FourTuple {
	return FourTuple{SrcIP: ft.DstIP, DstIP: ft.SrcIP, SrcPort: ft.DstPort, DstPort: ft.SrcPort}
}

// String renders "src:port->dst:port".
func (ft FourTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort)
}

// Segment is one TCP segment, possibly carrying MPTCP options.
//
// PayloadLen is the number of application bytes carried; the simulator does
// not materialise payload bytes (contents are tracked by data-sequence
// ranges), but AppendWire emits PayloadLen zero bytes so wire size is honest.
//
// Segments carry inline storage for the options the stack itself builds:
// one DSS and one SACK (the hot data path), one MP_CAPABLE and one MP_JOIN
// (the handshakes), and four option slots. They are claimed via
// ScratchDSS / ScratchSACK / ScratchMPCapable / ScratchMPJoin, so
// building, cloning and in-place unmarshalling a typical segment performs
// no heap allocation. A segment whose scratch options are in use must not
// be copied by value (the internal pointers would alias); use Clone or
// CopyFrom.
type Segment struct {
	Tuple      FourTuple
	Seq        uint32 // subflow-level sequence number of first payload byte
	Ack        uint32 // subflow-level cumulative acknowledgement (valid if ACK set)
	Flags      Flags
	claimed    uint8  // scratch options in use (slot* bits), cleared by Reset
	Window     uint32 // receive window in bytes (already scaled)
	PayloadLen int
	Options    []Option

	optBack [4]Option      // inline backing array for Options
	dss     DSS            // inline storage claimed by ScratchDSS
	sack    SACK           // inline storage claimed by ScratchSACK
	hs      *handshakeSlot // claimed by ScratchMPCapable / ScratchMPJoin
}

// Scratch-option claim bits.
const (
	slotDSS uint8 = 1 << iota
	slotSACK
	slotMPCapable
	slotMPJoin
)

// handshakeSlot is a segment's storage for its handshake option. It hangs
// off the segment instead of lying in it because only handshake segments
// need it, and its 80 bytes would lift every data segment into the next
// allocator size class: the first handshake a pooled segment carries pays
// for the slot, and like the SACK block capacity it then stays with the
// segment across Resets.
type handshakeSlot struct {
	mpc  MPCapable
	join MPJoin
}

// Reset returns the segment to its zero state while retaining its inline
// option capacity, making it safe to reuse via a Pool: no field of a
// previous life survives (the scratch options are zeroed when claimed).
func (s *Segment) Reset() {
	s.Tuple = FourTuple{}
	s.Seq, s.Ack, s.Window = 0, 0, 0
	s.Flags = 0
	s.claimed = 0
	s.PayloadLen = 0
	for i := range s.optBack {
		s.optBack[i] = nil
	}
	s.Options = s.optBack[:0]
	s.dss = DSS{}
	s.sack.Blocks = s.sack.Blocks[:0]
}

// claim marks a scratch slot used and appends its option.
func (s *Segment) claim(slot uint8, o Option) {
	s.claimed |= slot
	if s.Options == nil {
		s.Options = s.optBack[:0]
	}
	s.Options = append(s.Options, o)
}

// ScratchDSS zeroes the segment's inline DSS option, appends it to
// Options and returns it for the caller to fill — the allocation-free way
// to attach the per-segment DSS. Valid once per segment lifetime (until
// the next Reset).
func (s *Segment) ScratchDSS() *DSS {
	s.dss = DSS{}
	s.claim(slotDSS, &s.dss)
	return &s.dss
}

// ScratchSACK empties and appends the segment's inline SACK option,
// retaining the block capacity of previous lives. Valid once per segment
// lifetime (until the next Reset).
func (s *Segment) ScratchSACK() *SACK {
	s.sack.Blocks = s.sack.Blocks[:0]
	s.claim(slotSACK, &s.sack)
	return &s.sack
}

// ScratchMPCapable zeroes and appends the segment's MP_CAPABLE slot, the
// handshake counterpart of ScratchDSS. Valid once per segment lifetime.
func (s *Segment) ScratchMPCapable() *MPCapable {
	hs := s.handshake()
	hs.mpc = MPCapable{}
	s.claim(slotMPCapable, &hs.mpc)
	return &hs.mpc
}

// ScratchMPJoin zeroes and appends the segment's MP_JOIN slot. Valid once
// per segment lifetime.
func (s *Segment) ScratchMPJoin() *MPJoin {
	hs := s.handshake()
	hs.join = MPJoin{}
	s.claim(slotMPJoin, &hs.join)
	return &hs.join
}

// handshake returns the segment's handshake slot, allocating it on the
// segment's first use as a handshake segment.
func (s *Segment) handshake() *handshakeSlot {
	if s.hs == nil {
		s.hs = new(handshakeSlot)
	}
	return s.hs
}

// AppendOptions deep-copies opts onto the segment: the first DSS, SACK,
// MP_CAPABLE and MP_JOIN land in the segment's scratch slots, anything
// else (and any repeat) is cloned to the heap. The caller keeps opts —
// the subflow engine attaches the handshake options its owner lends it
// this way.
func (s *Segment) AppendOptions(opts []Option) {
	for _, o := range opts {
		switch o := o.(type) {
		case *DSS:
			if s.claimed&slotDSS == 0 {
				*s.ScratchDSS() = *o
				continue
			}
		case *SACK:
			if s.claimed&slotSACK == 0 {
				sk := s.ScratchSACK()
				sk.Blocks = append(sk.Blocks, o.Blocks...)
				continue
			}
		case *MPCapable:
			if s.claimed&slotMPCapable == 0 {
				*s.ScratchMPCapable() = *o
				continue
			}
		case *MPJoin:
			if s.claimed&slotMPJoin == 0 {
				*s.ScratchMPJoin() = *o
				continue
			}
		}
		s.Options = append(s.Options, o.clone())
	}
}

// CopyFrom deep-copies src into s, reusing s's scratch options (see
// AppendOptions), so copying a data or handshake segment does not
// allocate. s is Reset first.
func (s *Segment) CopyFrom(src *Segment) {
	s.Reset()
	s.Tuple = src.Tuple
	s.Seq, s.Ack = src.Seq, src.Ack
	s.Flags = src.Flags
	s.Window = src.Window
	s.PayloadLen = src.PayloadLen
	s.AppendOptions(src.Options)
}

// SeqEnd reports the subflow sequence number after this segment: Seq plus
// payload, plus one if SYN or FIN consume sequence space.
func (s *Segment) SeqEnd() uint32 {
	end := s.Seq + uint32(s.PayloadLen)
	if s.Flags&SYN != 0 {
		end++
	}
	if s.Flags&FIN != 0 {
		end++
	}
	return end
}

// Is reports whether all flags in mask are set.
func (s *Segment) Is(mask Flags) bool { return s.Flags&mask == mask }

// Option returns the first MPTCP option with the given subtype, or nil.
func (s *Segment) Option(sub Subtype) Option {
	for _, o := range s.Options {
		if o.Subtype() == sub {
			return o
		}
	}
	return nil
}

// MPCapable returns the segment's MP_CAPABLE option, if any.
func (s *Segment) MPCapable() *MPCapable {
	if o := s.Option(SubMPCapable); o != nil {
		return o.(*MPCapable)
	}
	return nil
}

// MPJoin returns the segment's MP_JOIN option, if any.
func (s *Segment) MPJoin() *MPJoin {
	if o := s.Option(SubMPJoin); o != nil {
		return o.(*MPJoin)
	}
	return nil
}

// DSS returns the segment's DSS option, if any.
func (s *Segment) DSS() *DSS {
	if o := s.Option(SubDSS); o != nil {
		return o.(*DSS)
	}
	return nil
}

// SACK returns the segment's selective-acknowledgement option, if any.
func (s *Segment) SACK() *SACK {
	if o := s.Option(SubSACK); o != nil {
		return o.(*SACK)
	}
	return nil
}

// WireSize reports the on-the-wire TCP size in bytes: the 20-byte base
// header, options padded to a multiple of 4, and the payload.
func (s *Segment) WireSize() int {
	opt := 0
	for _, o := range s.Options {
		opt += o.wireLen()
	}
	opt = (opt + 3) &^ 3
	return headerLen + opt + s.PayloadLen
}

// Equal reports semantic equality: header fields and options compare by
// value, regardless of whether inline scratch or heap storage backs them.
func (s *Segment) Equal(o *Segment) bool {
	if s.Tuple != o.Tuple || s.Seq != o.Seq || s.Ack != o.Ack || s.Flags != o.Flags ||
		s.Window != o.Window || s.PayloadLen != o.PayloadLen || len(s.Options) != len(o.Options) {
		return false
	}
	for i := range s.Options {
		if !optionEqual(s.Options[i], o.Options[i]) {
			return false
		}
	}
	return true
}

// optionEqual compares two options by value.
func optionEqual(a, b Option) bool {
	switch a := a.(type) {
	case *DSS:
		b, ok := b.(*DSS)
		return ok && *a == *b
	case *SACK:
		b, ok := b.(*SACK)
		if !ok || len(a.Blocks) != len(b.Blocks) {
			return false
		}
		for i := range a.Blocks {
			if a.Blocks[i] != b.Blocks[i] {
				return false
			}
		}
		return true
	case *MPCapable:
		b, ok := b.(*MPCapable)
		return ok && *a == *b
	case *MPJoin:
		b, ok := b.(*MPJoin)
		return ok && *a == *b
	case *AddAddr:
		b, ok := b.(*AddAddr)
		return ok && *a == *b
	case *RemoveAddr:
		b, ok := b.(*RemoveAddr)
		if !ok || len(a.AddrIDs) != len(b.AddrIDs) {
			return false
		}
		for i := range a.AddrIDs {
			if a.AddrIDs[i] != b.AddrIDs[i] {
				return false
			}
		}
		return true
	case *MPPrio:
		b, ok := b.(*MPPrio)
		return ok && *a == *b
	case *MPFail:
		b, ok := b.(*MPFail)
		return ok && *a == *b
	case *FastClose:
		b, ok := b.(*FastClose)
		return ok && *a == *b
	}
	return false
}

// String renders a compact human-readable summary, used by traces.
func (s *Segment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s] seq=%d ack=%d len=%d", s.Tuple, s.Flags, s.Seq, s.Ack, s.PayloadLen)
	for _, o := range s.Options {
		fmt.Fprintf(&b, " %s", o)
	}
	return b.String()
}
