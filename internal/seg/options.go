package seg

import (
	"fmt"
	"net/netip"
)

// Subtype identifies an MPTCP option subtype (RFC 6824 §3).
type Subtype uint8

// MPTCP option subtypes.
const (
	SubMPCapable  Subtype = 0x0
	SubMPJoin     Subtype = 0x1
	SubDSS        Subtype = 0x2
	SubAddAddr    Subtype = 0x3
	SubRemoveAddr Subtype = 0x4
	SubMPPrio     Subtype = 0x5
	SubMPFail     Subtype = 0x6
	SubFastClose  Subtype = 0x7
)

// String names the subtype.
func (s Subtype) String() string {
	switch s {
	case SubMPCapable:
		return "MP_CAPABLE"
	case SubMPJoin:
		return "MP_JOIN"
	case SubDSS:
		return "DSS"
	case SubAddAddr:
		return "ADD_ADDR"
	case SubRemoveAddr:
		return "REMOVE_ADDR"
	case SubMPPrio:
		return "MP_PRIO"
	case SubMPFail:
		return "MP_FAIL"
	case SubFastClose:
		return "MP_FASTCLOSE"
	case SubSACK:
		return "SACK"
	}
	return fmt.Sprintf("MPTCP(0x%x)", uint8(s))
}

// Option is one TCP option carried by a segment: the MPTCP options (kind
// 30) plus classic SACK (kind 5). Each implementation knows its wire
// length and encoding.
type Option interface {
	Subtype() Subtype
	kind() uint8
	wireLen() int
	encode(b []byte) // b has wireLen() bytes; b[0]/b[1] prefilled with kind/len
	clone() Option
	fmt.Stringer
}

// SubSACK is the pseudo-subtype under which the classic TCP SACK option is
// addressable via Segment.Option (real SACK has no MPTCP subtype; 0xE is
// outside the RFC 6824 range).
const SubSACK Subtype = 0xE

// SackBlock is one selective-acknowledgement range [Lo, Hi).
type SackBlock struct {
	Lo, Hi uint32
}

// SACK is the classic TCP selective acknowledgement option (kind 5,
// RFC 2018), carrying up to 4 out-of-order ranges the receiver holds. The
// subflow engine needs it for efficient burst-loss recovery, like the
// Linux stack the paper's experiments ran on.
type SACK struct {
	Blocks []SackBlock
}

// Subtype implements Option.
func (*SACK) Subtype() Subtype { return SubSACK }

func (*SACK) kind() uint8 { return optKindSACK }

func (o *SACK) wireLen() int { return 2 + 8*len(o.Blocks) }

func (o *SACK) encode(b []byte) {
	off := 2
	for _, blk := range o.Blocks {
		be32put(b[off:], blk.Lo)
		be32put(b[off+4:], blk.Hi)
		off += 8
	}
}

func (o *SACK) clone() Option {
	return &SACK{Blocks: append([]SackBlock(nil), o.Blocks...)}
}

// String implements fmt.Stringer.
func (o *SACK) String() string { return fmt.Sprintf("SACK%v", o.Blocks) }

// MPCapable is the MP_CAPABLE option (subtype 0). On a SYN it carries the
// sender's key; on the SYN+ACK the receiver's key; on the third ACK both.
type MPCapable struct {
	Version     uint8
	ChecksumReq bool // "A" flag
	SenderKey   uint64
	ReceiverKey uint64 // present only on the third ACK
	HasReceiver bool
}

// Subtype implements Option.
func (*MPCapable) Subtype() Subtype { return SubMPCapable }

func (*MPCapable) kind() uint8 { return optKindMPTCP }

func (o *MPCapable) wireLen() int {
	if o.HasReceiver {
		return 20
	}
	return 12
}

func (o *MPCapable) encode(b []byte) {
	b[2] = byte(SubMPCapable)<<4 | (o.Version & 0xf)
	var flags uint8 = 0x01 // "H": HMAC-SHA1 crypto algorithm
	if o.ChecksumReq {
		flags |= 0x80
	}
	b[3] = flags
	be64put(b[4:], o.SenderKey)
	if o.HasReceiver {
		be64put(b[12:], o.ReceiverKey)
	}
}

func (o *MPCapable) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *MPCapable) String() string {
	if o.HasReceiver {
		return fmt.Sprintf("MP_CAPABLE(kA=%x,kB=%x)", o.SenderKey, o.ReceiverKey)
	}
	return fmt.Sprintf("MP_CAPABLE(k=%x)", o.SenderKey)
}

// MPJoin is the MP_JOIN option (subtype 1). Its shape differs on the SYN
// (token+nonce), SYN+ACK (truncated HMAC+nonce) and third ACK (full HMAC).
type MPJoin struct {
	Backup bool // "B" flag: request this subflow be treated as backup
	AddrID uint8

	// SYN form.
	Token uint32
	Nonce uint32

	// SYN+ACK form.
	TruncHMAC uint64

	// Third-ACK form.
	FullHMAC [20]byte

	// Form disambiguates the three encodings (the real protocol infers it
	// from the TCP flags and option length; we keep it explicit and verify
	// consistency when unmarshalling).
	Form JoinForm
}

// JoinForm selects which of the three MP_JOIN encodings is present.
type JoinForm uint8

// The three MP_JOIN message forms.
const (
	JoinSYN JoinForm = iota
	JoinSYNACK
	JoinACK
)

// Subtype implements Option.
func (*MPJoin) Subtype() Subtype { return SubMPJoin }

func (*MPJoin) kind() uint8 { return optKindMPTCP }

func (o *MPJoin) wireLen() int {
	switch o.Form {
	case JoinSYN:
		return 12
	case JoinSYNACK:
		return 16
	default:
		return 24
	}
}

func (o *MPJoin) encode(b []byte) {
	var flags uint8
	if o.Backup {
		flags = 0x01
	}
	b[2] = byte(SubMPJoin)<<4 | flags
	b[3] = o.AddrID
	switch o.Form {
	case JoinSYN:
		be32put(b[4:], o.Token)
		be32put(b[8:], o.Nonce)
	case JoinSYNACK:
		be64put(b[4:], o.TruncHMAC)
		be32put(b[12:], o.Nonce)
	case JoinACK:
		copy(b[4:], o.FullHMAC[:])
	}
}

func (o *MPJoin) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *MPJoin) String() string {
	switch o.Form {
	case JoinSYN:
		return fmt.Sprintf("MP_JOIN(tok=%x,id=%d,backup=%v)", o.Token, o.AddrID, o.Backup)
	case JoinSYNACK:
		return fmt.Sprintf("MP_JOIN(hmac=%x,id=%d)", o.TruncHMAC, o.AddrID)
	default:
		return "MP_JOIN(ack)"
	}
}

// DSS is the Data Sequence Signal option (subtype 2). It carries the
// connection-level acknowledgement and/or the mapping from subflow sequence
// space to data sequence space. This reproduction always uses 8-byte data
// sequence numbers and data ACKs (the "m"/"a" flags clear means 8 bytes per
// our encoding choice below).
type DSS struct {
	HasDataAck bool
	DataAck    uint64

	HasMap     bool
	DataSeq    uint64
	SubflowSeq uint32 // relative to the subflow's initial sequence number
	MapLen     uint16
	DataFIN    bool
}

// Subtype implements Option.
func (*DSS) Subtype() Subtype { return SubDSS }

func (*DSS) kind() uint8 { return optKindMPTCP }

func (o *DSS) wireLen() int {
	n := 4
	if o.HasDataAck {
		n += 8
	}
	if o.HasMap {
		n += 8 + 4 + 2 + 2 // DSN + subflow seq + len + zero checksum
	}
	return n
}

func (o *DSS) encode(b []byte) {
	b[2] = byte(SubDSS) << 4
	var flags uint8
	if o.DataFIN {
		flags |= 0x10 // F
	}
	if o.HasMap {
		flags |= 0x04 | 0x08 // M + m(8-byte DSN)
	}
	if o.HasDataAck {
		flags |= 0x01 | 0x02 // A + a(8-byte ack)
	}
	b[3] = flags
	off := 4
	if o.HasDataAck {
		be64put(b[off:], o.DataAck)
		off += 8
	}
	if o.HasMap {
		be64put(b[off:], o.DataSeq)
		be32put(b[off+8:], o.SubflowSeq)
		be16put(b[off+12:], o.MapLen)
		be16put(b[off+14:], 0) // checksum unused (we do not negotiate it)
	}
}

func (o *DSS) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *DSS) String() string {
	s := "DSS("
	if o.HasDataAck {
		s += fmt.Sprintf("ack=%d ", o.DataAck)
	}
	if o.HasMap {
		s += fmt.Sprintf("map=%d+%d@%d ", o.DataSeq, o.MapLen, o.SubflowSeq)
	}
	if o.DataFIN {
		s += "FIN "
	}
	return s[:len(s)-1] + ")"
}

// AddAddr is the ADD_ADDR option (subtype 3): the sender announces an
// additional address (and optionally port) the peer may join to.
type AddAddr struct {
	AddrID  uint8
	Addr    netip.Addr
	Port    uint16 // 0 means not announced
	HasPort bool
}

// Subtype implements Option.
func (*AddAddr) Subtype() Subtype { return SubAddAddr }

func (*AddAddr) kind() uint8 { return optKindMPTCP }

func (o *AddAddr) wireLen() int {
	n := 4
	if o.Addr.Is4() {
		n += 4
	} else {
		n += 16
	}
	if o.HasPort {
		n += 2
	}
	return n
}

func (o *AddAddr) encode(b []byte) {
	ipver := uint8(6)
	if o.Addr.Is4() {
		ipver = 4
	}
	b[2] = byte(SubAddAddr)<<4 | ipver
	b[3] = o.AddrID
	raw := o.Addr.AsSlice()
	copy(b[4:], raw)
	if o.HasPort {
		be16put(b[4+len(raw):], o.Port)
	}
}

func (o *AddAddr) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *AddAddr) String() string {
	if o.HasPort {
		return fmt.Sprintf("ADD_ADDR(%d,%s:%d)", o.AddrID, o.Addr, o.Port)
	}
	return fmt.Sprintf("ADD_ADDR(%d,%s)", o.AddrID, o.Addr)
}

// RemoveAddr is the REMOVE_ADDR option (subtype 4).
type RemoveAddr struct {
	AddrIDs []uint8
}

// Subtype implements Option.
func (*RemoveAddr) Subtype() Subtype { return SubRemoveAddr }

func (*RemoveAddr) kind() uint8 { return optKindMPTCP }

func (o *RemoveAddr) wireLen() int { return 3 + len(o.AddrIDs) }

func (o *RemoveAddr) encode(b []byte) {
	b[2] = byte(SubRemoveAddr) << 4
	copy(b[3:], o.AddrIDs)
}

func (o *RemoveAddr) clone() Option {
	c := &RemoveAddr{AddrIDs: append([]uint8(nil), o.AddrIDs...)}
	return c
}

// String implements fmt.Stringer.
func (o *RemoveAddr) String() string { return fmt.Sprintf("REMOVE_ADDR(%v)", o.AddrIDs) }

// MPPrio is the MP_PRIO option (subtype 5): dynamically change a subflow's
// backup priority, optionally for another subflow identified by address ID.
type MPPrio struct {
	Backup    bool
	AddrID    uint8
	HasAddrID bool
}

// Subtype implements Option.
func (*MPPrio) Subtype() Subtype { return SubMPPrio }

func (*MPPrio) kind() uint8 { return optKindMPTCP }

func (o *MPPrio) wireLen() int {
	if o.HasAddrID {
		return 4
	}
	return 3
}

func (o *MPPrio) encode(b []byte) {
	var flags uint8
	if o.Backup {
		flags = 0x01
	}
	b[2] = byte(SubMPPrio)<<4 | flags
	if o.HasAddrID {
		b[3] = o.AddrID
	}
}

func (o *MPPrio) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *MPPrio) String() string { return fmt.Sprintf("MP_PRIO(backup=%v)", o.Backup) }

// MPFail is the MP_FAIL option (subtype 6), sent on checksum failure.
type MPFail struct {
	DataSeq uint64
}

// Subtype implements Option.
func (*MPFail) Subtype() Subtype { return SubMPFail }

func (*MPFail) kind() uint8 { return optKindMPTCP }

func (o *MPFail) wireLen() int { return 12 }

func (o *MPFail) encode(b []byte) {
	b[2] = byte(SubMPFail) << 4
	b[3] = 0
	be64put(b[4:], o.DataSeq)
}

func (o *MPFail) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *MPFail) String() string { return fmt.Sprintf("MP_FAIL(dsn=%d)", o.DataSeq) }

// FastClose is the MP_FASTCLOSE option (subtype 7): abruptly close the whole
// connection, proving knowledge of the peer's key.
type FastClose struct {
	ReceiverKey uint64
}

// Subtype implements Option.
func (*FastClose) Subtype() Subtype { return SubFastClose }

func (*FastClose) kind() uint8 { return optKindMPTCP }

func (o *FastClose) wireLen() int { return 12 }

func (o *FastClose) encode(b []byte) {
	b[2] = byte(SubFastClose) << 4
	b[3] = 0
	be64put(b[4:], o.ReceiverKey)
}

func (o *FastClose) clone() Option { c := *o; return &c }

// String implements fmt.Stringer.
func (o *FastClose) String() string { return fmt.Sprintf("MP_FASTCLOSE(k=%x)", o.ReceiverKey) }
