package nlmsg

// The allocating reference codec: an independent second definition of
// the wire format, kept out of the shipped package. It builds messages
// attribute by attribute (Message.Marshal, the U8…Nested constructors)
// and decodes with copies (Unmarshal, UnmarshalAttrs, ParseInfo), sharing
// no code with the append codec in fast.go beyond the constants —
// TestAppendMarshalMatchesLegacy and FuzzNlmsgRoundTrip hold the two
// byte-identical.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/seg"
)

// Marshal encodes the message with real Netlink framing.
func (m *Message) Marshal() []byte {
	size := nlHdrLen + genlHdrLen
	for _, a := range m.Attrs {
		size += align(4 + len(a.Data))
	}
	buf := make([]byte, size)
	le := binary.LittleEndian // netlink is host-endian; we fix LE
	le.PutUint32(buf[0:], uint32(size))
	le.PutUint16(buf[4:], familyType)
	le.PutUint16(buf[6:], 0) // flags
	le.PutUint32(buf[8:], m.Seq)
	le.PutUint32(buf[12:], m.Pid)
	buf[16] = uint8(m.Cmd)
	buf[17] = version
	off := nlHdrLen + genlHdrLen
	for _, a := range m.Attrs {
		le.PutUint16(buf[off:], uint16(4+len(a.Data)))
		le.PutUint16(buf[off+2:], uint16(a.Type))
		copy(buf[off+4:], a.Data)
		off += align(4 + len(a.Data))
	}
	return buf
}

// Unmarshal decodes one message. It returns the message and the number of
// bytes consumed (messages may be concatenated in a stream).
func Unmarshal(b []byte) (*Message, int, error) {
	if len(b) < nlHdrLen+genlHdrLen {
		return nil, 0, errors.New("nlmsg: truncated header")
	}
	le := binary.LittleEndian
	total := int(le.Uint32(b[0:]))
	if total < nlHdrLen+genlHdrLen || total > len(b) {
		return nil, 0, fmt.Errorf("nlmsg: bad length %d (have %d)", total, len(b))
	}
	if le.Uint16(b[4:]) != familyType {
		return nil, 0, fmt.Errorf("nlmsg: unknown family type %#x", le.Uint16(b[4:]))
	}
	m := &Message{
		Seq: le.Uint32(b[8:]),
		Pid: le.Uint32(b[12:]),
		Cmd: Cmd(b[16]),
	}
	attrs, err := UnmarshalAttrs(b[nlHdrLen+genlHdrLen : total])
	if err != nil {
		return nil, 0, err
	}
	m.Attrs = attrs
	return m, total, nil
}

// UnmarshalAttrs parses a TLV attribute block (also used for nesting),
// copying every payload.
func UnmarshalAttrs(b []byte) ([]Attr, error) {
	var attrs []Attr
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, errors.New("nlmsg: truncated attribute")
		}
		le := binary.LittleEndian
		alen := int(le.Uint16(b[0:]))
		atype := AttrType(le.Uint16(b[2:]))
		if alen < 4 || alen > len(b) {
			return nil, fmt.Errorf("nlmsg: bad attribute length %d", alen)
		}
		data := make([]byte, alen-4)
		copy(data, b[4:alen])
		attrs = append(attrs, Attr{Type: atype, Data: data})
		adv := align(alen)
		if adv > len(b) {
			adv = len(b)
		}
		b = b[adv:]
	}
	return attrs, nil
}

// AsNested decodes a nested attribute block.
func (a Attr) AsNested() ([]Attr, error) { return UnmarshalAttrs(a.Data) }

// MarshalAttrs encodes a TLV attribute block (for nesting).
func MarshalAttrs(attrs []Attr) []byte {
	size := 0
	for _, a := range attrs {
		size += align(4 + len(a.Data))
	}
	buf := make([]byte, size)
	le := binary.LittleEndian
	off := 0
	for _, a := range attrs {
		le.PutUint16(buf[off:], uint16(4+len(a.Data)))
		le.PutUint16(buf[off+2:], uint16(a.Type))
		copy(buf[off+4:], a.Data)
		off += align(4 + len(a.Data))
	}
	return buf
}

// U8 builds a one-byte attribute.
func U8(t AttrType, v uint8) Attr { return Attr{Type: t, Data: []byte{v}} }

// U16 builds a two-byte attribute.
func U16(t AttrType, v uint16) Attr {
	d := make([]byte, 2)
	binary.LittleEndian.PutUint16(d, v)
	return Attr{Type: t, Data: d}
}

// U32 builds a four-byte attribute.
func U32(t AttrType, v uint32) Attr {
	d := make([]byte, 4)
	binary.LittleEndian.PutUint32(d, v)
	return Attr{Type: t, Data: d}
}

// U64 builds an eight-byte attribute.
func U64(t AttrType, v uint64) Attr {
	d := make([]byte, 8)
	binary.LittleEndian.PutUint64(d, v)
	return Attr{Type: t, Data: d}
}

// Address builds an IP address attribute (4 or 16 raw bytes).
func Address(t AttrType, a netip.Addr) Attr { return Attr{Type: t, Data: a.AsSlice()} }

// Nested builds a nested attribute from children.
func Nested(t AttrType, children []Attr) Attr {
	return Attr{Type: t, Data: MarshalAttrs(children)}
}

// tupleAttrs encodes a 4-tuple as attributes.
func tupleAttrs(ft seg.FourTuple) []Attr {
	return []Attr{
		Address(AttrLocalAddr, ft.SrcIP),
		Address(AttrRemoteAddr, ft.DstIP),
		U16(AttrLocalPort, ft.SrcPort),
		U16(AttrRemotePort, ft.DstPort),
	}
}

// Marshal encodes the event as a Netlink message.
func (e *Event) Marshal(seq, pid uint32) []byte {
	m := Message{Cmd: e.Kind, Seq: seq, Pid: pid}
	m.Attrs = append(m.Attrs, U64(AttrTimestamp, uint64(e.At)))
	if e.Token != 0 {
		m.Attrs = append(m.Attrs, U32(AttrToken, e.Token))
	}
	if e.HasTuple {
		m.Attrs = append(m.Attrs, tupleAttrs(e.Tuple)...)
	}
	switch e.Kind {
	case EvSubClosed:
		m.Attrs = append(m.Attrs, U32(AttrErrno, e.Errno))
	case EvAddAddr:
		m.Attrs = append(m.Attrs, U8(AttrAddrID, e.AddrID), Address(AttrAddr, e.Addr), U16(AttrPort, e.Port))
	case EvRemAddr:
		m.Attrs = append(m.Attrs, U8(AttrAddrID, e.AddrID))
	case EvTimeout:
		m.Attrs = append(m.Attrs, U64(AttrRTO, uint64(e.RTO)), U32(AttrBackoffs, e.Backoffs))
	case EvLocalAddrUp, EvLocalAddrDown:
		m.Attrs = append(m.Attrs, Address(AttrAddr, e.Addr))
	}
	return m.Marshal()
}

// ParseEvent decodes an event message.
func ParseEvent(m *Message) (*Event, error) {
	e := &Event{}
	if err := ParseEventInto(m, e); err != nil {
		return nil, err
	}
	return e, nil
}

// Marshal encodes the command.
func (c *Command) Marshal() []byte {
	m := Message{Cmd: c.Kind, Seq: c.Seq, Pid: c.Pid}
	if c.Token != 0 {
		m.Attrs = append(m.Attrs, U32(AttrToken, c.Token))
	}
	switch c.Kind {
	case CmdSubscribe:
		m.Attrs = append(m.Attrs, U32(AttrEventMask, uint32(c.Mask)))
	case CmdCreateSubflow:
		m.Attrs = append(m.Attrs, tupleAttrs(c.Tuple)...)
		b := uint8(0)
		if c.Backup {
			b = 1
		}
		m.Attrs = append(m.Attrs, U8(AttrBackup, b))
	case CmdRemoveSubflow:
		m.Attrs = append(m.Attrs, tupleAttrs(c.Tuple)...)
	case CmdSetBackup:
		m.Attrs = append(m.Attrs, tupleAttrs(c.Tuple)...)
		b := uint8(0)
		if c.Backup {
			b = 1
		}
		m.Attrs = append(m.Attrs, U8(AttrBackup, b))
	case CmdAnnounceAddr:
		m.Attrs = append(m.Attrs, Address(AttrAddr, c.Addr), U16(AttrPort, c.Port))
	}
	return m.Marshal()
}

// ParseCommand decodes a command message.
func ParseCommand(m *Message) (*Command, error) {
	c := &Command{}
	if err := ParseCommandInto(m, c); err != nil {
		return nil, err
	}
	return c, nil
}

// MarshalInfo encodes a get-info reply.
func MarshalInfo(info *ConnInfo, seq, pid uint32) []byte {
	m := Message{Cmd: ReplyInfo, Seq: seq, Pid: pid}
	m.Attrs = append(m.Attrs,
		U32(AttrToken, info.Token),
		U64(AttrSndUna, info.SndUna),
		U64(AttrAppNxt, info.AppNxt),
		U64(AttrRcvBytes, info.RcvBytes),
	)
	for _, sf := range info.Subflows {
		children := tupleAttrs(sf.Tuple)
		b := uint8(0)
		if sf.Backup {
			b = 1
		}
		children = append(children,
			U32(AttrState, sf.State),
			U8(AttrBackup, b),
			U32(AttrCwnd, sf.Cwnd),
			U64(AttrSRTT, uint64(sf.SRTT)),
			U64(AttrRTO, uint64(sf.RTO)),
			U32(AttrBackoffs, sf.Backoffs),
			U64(AttrPacingRate, sf.PacingRate),
			U32(AttrFlight, sf.Flight),
		)
		m.Attrs = append(m.Attrs, Nested(AttrSubflow, children))
	}
	return m.Marshal()
}

// ParseInfo decodes a get-info reply into a fresh ConnInfo, each nested
// subflow block through its own decoded attribute list.
func ParseInfo(m *Message) (*ConnInfo, error) {
	if m.Cmd != ReplyInfo {
		return nil, fmt.Errorf("nlmsg: %v is not an info reply", m.Cmd)
	}
	info := &ConnInfo{}
	for _, a := range m.Attrs {
		var err error
		switch a.Type {
		case AttrToken:
			info.Token, err = a.AsU32()
		case AttrSndUna:
			info.SndUna, err = a.AsU64()
		case AttrAppNxt:
			info.AppNxt, err = a.AsU64()
		case AttrRcvBytes:
			info.RcvBytes, err = a.AsU64()
		case AttrSubflow:
			var children []Attr
			children, err = a.AsNested()
			if err != nil {
				break
			}
			var sf SubflowInfo
			sf, err = parseSubflowInfo(children)
			if err != nil {
				break
			}
			info.Subflows = append(info.Subflows, sf)
		}
		if err != nil {
			return nil, err
		}
	}
	return info, nil
}

func parseSubflowInfo(attrs []Attr) (SubflowInfo, error) {
	var sf SubflowInfo
	ft, ok := tupleFromAttrs(attrs)
	if !ok {
		return sf, fmt.Errorf("nlmsg: subflow info without tuple")
	}
	sf.Tuple = ft
	for _, a := range attrs {
		var err error
		switch a.Type {
		case AttrState:
			sf.State, err = a.AsU32()
		case AttrBackup:
			var v uint8
			v, err = a.AsU8()
			sf.Backup = v != 0
		case AttrCwnd:
			sf.Cwnd, err = a.AsU32()
		case AttrSRTT:
			var v uint64
			v, err = a.AsU64()
			sf.SRTT = time.Duration(v)
		case AttrRTO:
			var v uint64
			v, err = a.AsU64()
			sf.RTO = time.Duration(v)
		case AttrBackoffs:
			sf.Backoffs, err = a.AsU32()
		case AttrPacingRate:
			sf.PacingRate, err = a.AsU64()
		case AttrFlight:
			sf.Flight, err = a.AsU32()
		}
		if err != nil {
			return sf, err
		}
	}
	return sf, nil
}

// MarshalAck encodes a command acknowledgement carrying an errno (0 = ok).
func MarshalAck(errno uint32, seq, pid uint32) []byte {
	m := Message{Cmd: ReplyAck, Seq: seq, Pid: pid,
		Attrs: []Attr{U32(AttrErrno, errno)}}
	return m.Marshal()
}
