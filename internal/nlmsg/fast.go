// Append-style marshalling and in-place unmarshalling: the codec every
// production sender and receiver uses, allocation-free into pooled
// buffers. An independent allocating encoder/decoder lives in
// reference_test.go; TestAppendMarshalMatchesLegacy and
// FuzzNlmsgRoundTrip pin the two byte-identical, so the wire format is
// still defined twice and cross-checked rather than defined once and
// trusted — the second definition just no longer ships.
package nlmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/seg"
)

// appendAttrHdr appends the 4-byte TLV header for an n-byte payload.
func appendAttrHdr(dst []byte, t AttrType, n int) []byte {
	return append(dst, byte(4+n), byte((4+n)>>8), byte(t), byte(t>>8))
}

func appendU8Attr(dst []byte, t AttrType, v uint8) []byte {
	dst = appendAttrHdr(dst, t, 1)
	return append(dst, v, 0, 0, 0) // 3 bytes pad to nlAlign
}

// appendBoolAttr writes a flag as a one-byte 0/1 attribute.
func appendBoolAttr(dst []byte, t AttrType, v bool) []byte {
	if v {
		return appendU8Attr(dst, t, 1)
	}
	return appendU8Attr(dst, t, 0)
}

func appendU16Attr(dst []byte, t AttrType, v uint16) []byte {
	dst = appendAttrHdr(dst, t, 2)
	return append(dst, byte(v), byte(v>>8), 0, 0)
}

func appendU32Attr(dst []byte, t AttrType, v uint32) []byte {
	dst = appendAttrHdr(dst, t, 4)
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64Attr(dst []byte, t AttrType, v uint64) []byte {
	dst = appendAttrHdr(dst, t, 8)
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendAddrAttr writes an address payload (4 or 16 raw bytes, or empty
// for the zero Addr — the same bytes AsSlice produces) without AsSlice's
// heap allocation.
func appendAddrAttr(dst []byte, t AttrType, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return appendAttrHdr(dst, t, 0)
	case a.Is4():
		v := a.As4()
		dst = appendAttrHdr(dst, t, 4)
		return append(dst, v[:]...)
	default:
		v := a.As16()
		dst = appendAttrHdr(dst, t, 16)
		return append(dst, v[:]...)
	}
}

func appendTupleAttrs(dst []byte, ft seg.FourTuple) []byte {
	dst = appendAddrAttr(dst, AttrLocalAddr, ft.SrcIP)
	dst = appendAddrAttr(dst, AttrRemoteAddr, ft.DstIP)
	dst = appendU16Attr(dst, AttrLocalPort, ft.SrcPort)
	return appendU16Attr(dst, AttrRemotePort, ft.DstPort)
}

// appendHdr reserves the nlmsghdr + genl header at the end of dst and
// returns its offset; finishHdr patches the total-length field once the
// attributes are in. Messages appended back to back form a valid
// multi-message frame (netlink messages are self-delimiting).
func appendHdr(dst []byte, cmd Cmd, seq, pid uint32) ([]byte, int) {
	start := len(dst)
	dst = append(dst,
		0, 0, 0, 0, // total length, patched by finishHdr
		familyType&0xff, familyType>>8, 0, 0, // type, flags
		byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24),
		byte(pid), byte(pid>>8), byte(pid>>16), byte(pid>>24),
		byte(cmd), version, 0, 0)
	return dst, start
}

func finishHdr(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return dst
}

// AppendMarshal appends the event's wire encoding to dst and returns the
// extended slice; dst is typically a Wire buffer already carrying earlier
// messages of a frame.
func (e *Event) AppendMarshal(dst []byte, seq, pid uint32) []byte {
	dst, start := appendHdr(dst, e.Kind, seq, pid)
	dst = appendU64Attr(dst, AttrTimestamp, uint64(e.At))
	if e.Token != 0 {
		dst = appendU32Attr(dst, AttrToken, e.Token)
	}
	if e.HasTuple {
		dst = appendTupleAttrs(dst, e.Tuple)
	}
	switch e.Kind {
	case EvSubClosed:
		dst = appendU32Attr(dst, AttrErrno, e.Errno)
	case EvAddAddr:
		dst = appendU8Attr(dst, AttrAddrID, e.AddrID)
		dst = appendAddrAttr(dst, AttrAddr, e.Addr)
		dst = appendU16Attr(dst, AttrPort, e.Port)
	case EvRemAddr:
		dst = appendU8Attr(dst, AttrAddrID, e.AddrID)
	case EvTimeout:
		dst = appendU64Attr(dst, AttrRTO, uint64(e.RTO))
		dst = appendU32Attr(dst, AttrBackoffs, e.Backoffs)
	case EvLocalAddrUp, EvLocalAddrDown:
		dst = appendAddrAttr(dst, AttrAddr, e.Addr)
	}
	return finishHdr(dst, start)
}

// AppendMarshal appends the command's wire encoding to dst.
func (c *Command) AppendMarshal(dst []byte) []byte {
	dst, start := appendHdr(dst, c.Kind, c.Seq, c.Pid)
	if c.Token != 0 {
		dst = appendU32Attr(dst, AttrToken, c.Token)
	}
	switch c.Kind {
	case CmdSubscribe:
		dst = appendU32Attr(dst, AttrEventMask, uint32(c.Mask))
	case CmdCreateSubflow:
		dst = appendTupleAttrs(dst, c.Tuple)
		dst = appendBoolAttr(dst, AttrBackup, c.Backup)
	case CmdRemoveSubflow:
		dst = appendTupleAttrs(dst, c.Tuple)
	case CmdSetBackup:
		dst = appendTupleAttrs(dst, c.Tuple)
		dst = appendBoolAttr(dst, AttrBackup, c.Backup)
	case CmdAnnounceAddr:
		dst = appendAddrAttr(dst, AttrAddr, c.Addr)
		dst = appendU16Attr(dst, AttrPort, c.Port)
	}
	return finishHdr(dst, start)
}

// AppendAck appends a command acknowledgement carrying an errno (0 = ok).
func AppendAck(dst []byte, errno, seq, pid uint32) []byte {
	dst, start := appendHdr(dst, ReplyAck, seq, pid)
	dst = appendU32Attr(dst, AttrErrno, errno)
	return finishHdr(dst, start)
}

// AppendInfo appends a get-info reply: the connection-level counters,
// then one nested AttrSubflow block per subflow.
func AppendInfo(dst []byte, info *ConnInfo, seq, pid uint32) []byte {
	dst, start := appendHdr(dst, ReplyInfo, seq, pid)
	dst = appendU32Attr(dst, AttrToken, info.Token)
	dst = appendU64Attr(dst, AttrSndUna, info.SndUna)
	dst = appendU64Attr(dst, AttrAppNxt, info.AppNxt)
	dst = appendU64Attr(dst, AttrRcvBytes, info.RcvBytes)
	for i := range info.Subflows {
		sf := &info.Subflows[i]
		nested := len(dst)
		dst = appendAttrHdr(dst, AttrSubflow, 0) // length patched below
		dst = appendTupleAttrs(dst, sf.Tuple)
		dst = appendU32Attr(dst, AttrState, sf.State)
		dst = appendBoolAttr(dst, AttrBackup, sf.Backup)
		dst = appendU32Attr(dst, AttrCwnd, sf.Cwnd)
		dst = appendU64Attr(dst, AttrSRTT, uint64(sf.SRTT))
		dst = appendU64Attr(dst, AttrRTO, uint64(sf.RTO))
		dst = appendU32Attr(dst, AttrBackoffs, sf.Backoffs)
		dst = appendU64Attr(dst, AttrPacingRate, sf.PacingRate)
		dst = appendU32Attr(dst, AttrFlight, sf.Flight)
		binary.LittleEndian.PutUint16(dst[nested:], uint16(len(dst)-nested))
	}
	return finishHdr(dst, start)
}

// UnmarshalInto decodes one message in place and returns the bytes
// consumed. Attr Data slices alias b directly — zero copies — so they
// are only valid while the caller holds b; once b goes back to Wire
// the views are dead. Inline scratch covers every event and command
// (≤ msgInlineAttrs attributes); a larger message (an info reply of five
// or more subflows) spills into m.spill, grown once and reused by every
// later message decoded into m.
func UnmarshalInto(b []byte, m *Message) (int, error) {
	if len(b) < nlHdrLen+genlHdrLen {
		return 0, errors.New("nlmsg: truncated header")
	}
	le := binary.LittleEndian
	total := int(le.Uint32(b[0:]))
	if total < nlHdrLen+genlHdrLen || total > len(b) {
		return 0, fmt.Errorf("nlmsg: bad length %d (have %d)", total, len(b))
	}
	if le.Uint16(b[4:]) != familyType {
		return 0, fmt.Errorf("nlmsg: unknown family type %#x", le.Uint16(b[4:]))
	}
	m.Seq = le.Uint32(b[8:])
	m.Pid = le.Uint32(b[12:])
	m.Cmd = Cmd(b[16])
	m.Attrs = m.scratch[:0]
	if m.spill != nil {
		m.Attrs = m.spill[:0]
	}
	for rest := b[nlHdrLen+genlHdrLen : total]; len(rest) > 0; {
		a, next, err := nextAttr(rest)
		if err != nil {
			return 0, err
		}
		m.Attrs = append(m.Attrs, a)
		rest = next
	}
	if len(m.Attrs) > msgInlineAttrs {
		m.spill = m.Attrs
	}
	return total, nil
}

// nextAttr splits the first attribute off a TLV block in place: its Data
// aliases b, and rest starts at the next 4-byte-aligned attribute.
func nextAttr(b []byte) (a Attr, rest []byte, err error) {
	if len(b) < 4 {
		return Attr{}, nil, errors.New("nlmsg: truncated attribute")
	}
	le := binary.LittleEndian
	alen := int(le.Uint16(b[0:]))
	if alen < 4 || alen > len(b) {
		return Attr{}, nil, fmt.Errorf("nlmsg: bad attribute length %d", alen)
	}
	return Attr{Type: AttrType(le.Uint16(b[2:])), Data: b[4:alen:alen]}, b[min(align(alen), len(b)):], nil
}
