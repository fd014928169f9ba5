// Package nlmsg implements the Netlink message format the paper's path
// manager speaks between kernel and userspace: the 16-byte nlmsghdr, a
// generic-netlink-style family header, and type-length-value attributes
// padded to 4-byte alignment (RFC 3549; Linux include/uapi/linux/netlink.h).
//
// The same bytes cross both transports in internal/core: the simulated
// latency pipe used in experiments and the real socket pipe used by
// cmd/smappd. Everything here is pure encoding — no I/O.
package nlmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Cmd enumerates the messages of the MPTCP path-manager Netlink family:
// the events §3 of the paper describes (kernel→user) and the commands
// (user→kernel).
type Cmd uint8

// Events (kernel → userspace).
const (
	// EvCreated: a Multipath TCP connection came into existence. Carries
	// the token and the initial subflow's 4-tuple.
	EvCreated Cmd = 1 + iota
	// EvEstablished: the MP_CAPABLE three-way handshake succeeded.
	EvEstablished
	// EvClosed: the connection terminated.
	EvClosed
	// EvSubEstablished: a subflow finished its handshake.
	EvSubEstablished
	// EvSubClosed: a subflow died; carries an errno reason.
	EvSubClosed
	// EvAddAddr: the peer announced an address.
	EvAddAddr
	// EvRemAddr: the peer withdrew an address.
	EvRemAddr
	// EvTimeout: a retransmission timer expired; carries the backed-off
	// RTO and the consecutive-backoff count.
	EvTimeout
	// EvLocalAddrUp / EvLocalAddrDown: a local interface changed state.
	EvLocalAddrUp
	EvLocalAddrDown
)

// Commands (userspace → kernel).
const (
	// CmdSubscribe sets the controller's event mask.
	CmdSubscribe Cmd = 32 + iota
	// CmdCreateSubflow opens a subflow from an arbitrary 4-tuple.
	CmdCreateSubflow
	// CmdRemoveSubflow removes any established subflow.
	CmdRemoveSubflow
	// CmdSetBackup changes a subflow's backup priority (MP_PRIO).
	CmdSetBackup
	// CmdGetInfo retrieves TCP_INFO-like state for a connection and all
	// its subflows.
	CmdGetInfo
	// CmdAnnounceAddr advertises a local address to the peer (ADD_ADDR).
	CmdAnnounceAddr
)

// Replies (kernel → userspace, solicited).
const (
	// ReplyAck acknowledges a command; AttrErrno reports the result.
	ReplyAck Cmd = 64 + iota
	// ReplyInfo answers CmdGetInfo.
	ReplyInfo
)

// String names the command.
func (c Cmd) String() string {
	switch c {
	case EvCreated:
		return "created"
	case EvEstablished:
		return "estab"
	case EvClosed:
		return "closed"
	case EvSubEstablished:
		return "sub_estab"
	case EvSubClosed:
		return "sub_closed"
	case EvAddAddr:
		return "add_addr"
	case EvRemAddr:
		return "rem_addr"
	case EvTimeout:
		return "timeout"
	case EvLocalAddrUp:
		return "new_local_addr"
	case EvLocalAddrDown:
		return "del_local_addr"
	case CmdSubscribe:
		return "subscribe"
	case CmdCreateSubflow:
		return "create_subflow"
	case CmdRemoveSubflow:
		return "remove_subflow"
	case CmdSetBackup:
		return "set_backup"
	case CmdGetInfo:
		return "get_info"
	case CmdAnnounceAddr:
		return "announce_addr"
	case ReplyAck:
		return "ack"
	case ReplyInfo:
		return "info"
	}
	return fmt.Sprintf("cmd(%d)", uint8(c))
}

// EventMask selects which events a controller receives ("the subflow
// controller receives only notifications for events it registered to").
type EventMask uint32

// MaskOf builds a mask from event commands.
func MaskOf(evs ...Cmd) EventMask {
	var m EventMask
	for _, e := range evs {
		m |= 1 << uint(e)
	}
	return m
}

// MaskAll subscribes to every event.
const MaskAll EventMask = 1<<32 - 1

// Has reports whether the mask includes an event.
func (m EventMask) Has(e Cmd) bool { return m&(1<<uint(e)) != 0 }

// AttrType enumerates attribute TLV types.
type AttrType uint16

// Attribute types.
const (
	AttrToken      AttrType = 1 + iota // u32 connection token
	AttrLocalAddr                      // 4 or 16 raw bytes
	AttrRemoteAddr                     // 4 or 16 raw bytes
	AttrLocalPort                      // u16
	AttrRemotePort                     // u16
	AttrAddrID                         // u8
	AttrAddr                           // announced address, 4/16 bytes
	AttrPort                           // u16
	AttrBackup                         // u8 flag
	AttrErrno                          // u32
	AttrRTO                            // u64 nanoseconds
	AttrBackoffs                       // u32
	AttrEventMask                      // u32
	AttrTimestamp                      // u64 virtual nanoseconds
	AttrSubflow                        // nested subflow info
	AttrConn                           // nested connection info
	AttrState                          // u32 subflow TCP state
	AttrCwnd                           // u32 bytes
	AttrSRTT                           // u64 nanoseconds
	AttrPacingRate                     // u64 bytes/second
	AttrSndUna                         // u64
	AttrAppNxt                         // u64
	AttrRcvBytes                       // u64
	AttrFlight                         // u32
)

// Attr is one type-length-value attribute. Nested attributes store their
// children marshalled in Data.
type Attr struct {
	Type AttrType
	Data []byte
}

// Message is one Netlink message of the MPTCP-PM family.
type Message struct {
	Cmd   Cmd
	Seq   uint32 // request/reply correlation
	Pid   uint32 // controller port id
	Attrs []Attr
	// scratch is the inline attribute storage UnmarshalInto borrows, so
	// decoding a reused Message never heap-allocates for the common case.
	// Every event and command fits (max 8 attrs: a timeout with a tuple);
	// only an info reply of five or more subflows spills past it, into
	// spill, which UnmarshalInto keeps and reuses for the next message.
	scratch [msgInlineAttrs]Attr
	spill   []Attr
}

// msgInlineAttrs sizes Message's inline scratch (see Message.scratch).
const msgInlineAttrs = 8

const (
	nlHdrLen   = 16 // struct nlmsghdr
	genlHdrLen = 4  // cmd, version, reserved
	nlAlign    = 4
	// familyType is the nlmsghdr type for this family (as if allocated by
	// genl family registration).
	familyType = 0x1b
	version    = 1
)

func align(n int) int { return (n + nlAlign - 1) &^ (nlAlign - 1) }

// --- Attribute accessors ---

// ErrTruncated reports an attribute shorter than its type requires.
var ErrTruncated = errors.New("nlmsg: attribute too short")

// AsU8 decodes a one-byte attribute.
func (a Attr) AsU8() (uint8, error) {
	if len(a.Data) < 1 {
		return 0, ErrTruncated
	}
	return a.Data[0], nil
}

// AsU16 decodes a two-byte attribute.
func (a Attr) AsU16() (uint16, error) {
	if len(a.Data) < 2 {
		return 0, ErrTruncated
	}
	return binary.LittleEndian.Uint16(a.Data), nil
}

// AsU32 decodes a four-byte attribute.
func (a Attr) AsU32() (uint32, error) {
	if len(a.Data) < 4 {
		return 0, ErrTruncated
	}
	return binary.LittleEndian.Uint32(a.Data), nil
}

// AsU64 decodes an eight-byte attribute.
func (a Attr) AsU64() (uint64, error) {
	if len(a.Data) < 8 {
		return 0, ErrTruncated
	}
	return binary.LittleEndian.Uint64(a.Data), nil
}

// AsAddr decodes an address attribute.
func (a Attr) AsAddr() (netip.Addr, error) {
	addr, ok := netip.AddrFromSlice(a.Data)
	if !ok {
		return netip.Addr{}, fmt.Errorf("nlmsg: bad address length %d", len(a.Data))
	}
	return addr, nil
}

// Get finds the first attribute of a type.
func Get(attrs []Attr, t AttrType) (Attr, bool) {
	for _, a := range attrs {
		if a.Type == t {
			return a, true
		}
	}
	return Attr{}, false
}
