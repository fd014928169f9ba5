package nlmsg

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/seg"
)

// Event is the decoded form of any kernel→user event message. Fields are
// populated according to Kind (see the Ev* documentation).
type Event struct {
	Kind     Cmd
	At       time.Duration // virtual timestamp of the event
	Token    uint32
	Tuple    seg.FourTuple // subflow events: the subflow's 4-tuple
	HasTuple bool
	Errno    uint32 // sub_closed reason
	AddrID   uint8
	Addr     netip.Addr // add_addr / local addr events
	Port     uint16
	RTO      time.Duration // timeout event: backed-off RTO now in force
	Backoffs uint32
	Backup   bool
}

func tupleFromAttrs(attrs []Attr) (seg.FourTuple, bool) {
	var ft seg.FourTuple
	la, ok1 := Get(attrs, AttrLocalAddr)
	ra, ok2 := Get(attrs, AttrRemoteAddr)
	lp, ok3 := Get(attrs, AttrLocalPort)
	rp, ok4 := Get(attrs, AttrRemotePort)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return ft, false
	}
	var err error
	if ft.SrcIP, err = la.AsAddr(); err != nil {
		return ft, false
	}
	if ft.DstIP, err = ra.AsAddr(); err != nil {
		return ft, false
	}
	sp, err := lp.AsU16()
	if err != nil {
		return ft, false
	}
	dp, err := rp.AsU16()
	if err != nil {
		return ft, false
	}
	ft.SrcPort, ft.DstPort = sp, dp
	return ft, true
}

// ParseEventInto decodes an event message into a caller-owned Event,
// allocation-free. The result is fully self-contained (Event holds no
// slices), so it stays valid after m's attr views are recycled.
func ParseEventInto(m *Message, e *Event) error {
	*e = Event{Kind: m.Cmd}
	if a, ok := Get(m.Attrs, AttrTimestamp); ok {
		v, err := a.AsU64()
		if err != nil {
			return err
		}
		e.At = time.Duration(v)
	}
	if a, ok := Get(m.Attrs, AttrToken); ok {
		v, err := a.AsU32()
		if err != nil {
			return err
		}
		e.Token = v
	}
	if ft, ok := tupleFromAttrs(m.Attrs); ok {
		e.Tuple = ft
		e.HasTuple = true
	}
	if a, ok := Get(m.Attrs, AttrErrno); ok {
		v, err := a.AsU32()
		if err != nil {
			return err
		}
		e.Errno = v
	}
	if a, ok := Get(m.Attrs, AttrAddrID); ok {
		v, err := a.AsU8()
		if err != nil {
			return err
		}
		e.AddrID = v
	}
	if a, ok := Get(m.Attrs, AttrAddr); ok {
		v, err := a.AsAddr()
		if err != nil {
			return err
		}
		e.Addr = v
	}
	if a, ok := Get(m.Attrs, AttrPort); ok {
		v, err := a.AsU16()
		if err != nil {
			return err
		}
		e.Port = v
	}
	if a, ok := Get(m.Attrs, AttrRTO); ok {
		v, err := a.AsU64()
		if err != nil {
			return err
		}
		e.RTO = time.Duration(v)
	}
	if a, ok := Get(m.Attrs, AttrBackoffs); ok {
		v, err := a.AsU32()
		if err != nil {
			return err
		}
		e.Backoffs = v
	}
	return nil
}

// Command is the decoded form of any user→kernel command.
type Command struct {
	Kind   Cmd
	Seq    uint32
	Pid    uint32
	Token  uint32
	Tuple  seg.FourTuple // create/remove/set-backup target
	Backup bool
	Mask   EventMask
	Addr   netip.Addr // announce_addr
	Port   uint16
}

// ParseCommandInto decodes a command message into a caller-owned Command,
// allocation-free. Like ParseEventInto, the result holds no views into
// the wire buffer.
func ParseCommandInto(m *Message, c *Command) error {
	*c = Command{Kind: m.Cmd, Seq: m.Seq, Pid: m.Pid}
	if a, ok := Get(m.Attrs, AttrToken); ok {
		v, err := a.AsU32()
		if err != nil {
			return err
		}
		c.Token = v
	}
	if ft, ok := tupleFromAttrs(m.Attrs); ok {
		c.Tuple = ft
	}
	if a, ok := Get(m.Attrs, AttrBackup); ok {
		v, err := a.AsU8()
		if err != nil {
			return err
		}
		c.Backup = v != 0
	}
	if a, ok := Get(m.Attrs, AttrEventMask); ok {
		v, err := a.AsU32()
		if err != nil {
			return err
		}
		c.Mask = EventMask(v)
	}
	if a, ok := Get(m.Attrs, AttrAddr); ok {
		v, err := a.AsAddr()
		if err != nil {
			return err
		}
		c.Addr = v
	}
	if a, ok := Get(m.Attrs, AttrPort); ok {
		v, err := a.AsU16()
		if err != nil {
			return err
		}
		c.Port = v
	}
	return nil
}

// SubflowInfo is the per-subflow slice of a ReplyInfo (a TCP_INFO subset).
type SubflowInfo struct {
	Tuple      seg.FourTuple
	State      uint32
	Backup     bool
	Cwnd       uint32
	SRTT       time.Duration
	RTO        time.Duration
	Backoffs   uint32
	PacingRate uint64 // bytes per second
	Flight     uint32
}

// ConnInfo is the connection-level slice of a ReplyInfo.
type ConnInfo struct {
	Token    uint32
	SndUna   uint64
	AppNxt   uint64
	RcvBytes uint64
	Subflows []SubflowInfo
}

// ParseInfoInto decodes a get-info reply into a caller-owned ConnInfo.
// Every field is reset and Subflows is truncated, keeping its backing
// array, so a reused ConnInfo decodes without allocating once it has held
// as many subflows. The nested subflow blocks are walked in place; like
// ParseEventInto, the result holds no views into the wire buffer.
func ParseInfoInto(m *Message, info *ConnInfo) error {
	*info = ConnInfo{Subflows: info.Subflows[:0]}
	if m.Cmd != ReplyInfo {
		return fmt.Errorf("nlmsg: %v is not an info reply", m.Cmd)
	}
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
			info.Subflows = append(info.Subflows, SubflowInfo{})
			err = parseSubflowInto(a.Data, &info.Subflows[len(info.Subflows)-1])
		}
		if err != nil {
			*info = ConnInfo{Subflows: info.Subflows[:0]}
			return err
		}
	}
	return nil
}

var errNoTuple = errors.New("nlmsg: subflow info without tuple")

// parseSubflowInto decodes one nested subflow block into sf, which must be
// zero. A later attribute of a type overrides an earlier one, except that
// the tuple takes the first of each of its four, as tupleFromAttrs does.
func parseSubflowInto(b []byte, sf *SubflowInfo) error {
	var tuple [4]Attr // AttrLocalAddr … AttrRemotePort
	for len(b) > 0 {
		a, rest, err := nextAttr(b)
		if err != nil {
			return err
		}
		b = rest
		switch a.Type {
		case AttrLocalAddr, AttrRemoteAddr, AttrLocalPort, AttrRemotePort:
			if t := &tuple[a.Type-AttrLocalAddr]; t.Type == 0 {
				*t = a
			}
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
			return err
		}
	}
	ft, ok := tupleFromAttrs(tuple[:])
	if !ok {
		return errNoTuple
	}
	sf.Tuple = ft
	return nil
}

// ParseAck decodes an acknowledgement, returning its errno.
func ParseAck(m *Message) (uint32, error) {
	if m.Cmd != ReplyAck {
		return 0, fmt.Errorf("nlmsg: %v is not an ack", m.Cmd)
	}
	a, ok := Get(m.Attrs, AttrErrno)
	if !ok {
		return 0, fmt.Errorf("nlmsg: ack without errno")
	}
	return a.AsU32()
}
