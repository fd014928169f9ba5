package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// headerLen is the length of the base TCP header without options.
const headerLen = 20

// TCP option kinds understood by this codec.
const (
	optKindEOL   = 0
	optKindNOP   = 1
	optKindSACK  = 5  // RFC 2018 selective acknowledgement
	optKindMPTCP = 30 // RFC 6824 Multipath TCP
)

// windowShift is the fixed window-scale factor the codec assumes, as if a
// WScale of 8 had been negotiated on the SYN. The struct carries the scaled
// window in bytes; the wire carries window>>windowShift.
const windowShift = 8

func be16put(b []byte, v uint16) { binary.BigEndian.PutUint16(b, v) }
func be32put(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }
func be64put(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

// AppendWire appends the segment's TCP wire image (base header, MPTCP
// options padded to 32-bit alignment, then PayloadLen zero bytes standing
// in for application data) to dst and returns the extended slice — append-
// style, like encoding/binary.Append, so callers that reuse a buffer
// across segments marshal without allocating. IP addresses are not part
// of the TCP wire image; the caller provides them out of band on
// UnmarshalInto.
func (s *Segment) AppendWire(dst []byte) ([]byte, error) {
	optLen := 0
	for _, o := range s.Options {
		optLen += o.wireLen()
	}
	padded := (optLen + 3) &^ 3
	if headerLen+padded > 60 {
		return nil, fmt.Errorf("seg: options too long (%d bytes, max 40)", padded)
	}
	base := len(dst)
	dst = append(dst, make([]byte, headerLen+padded+s.PayloadLen)...)
	buf := dst[base:]
	be16put(buf[0:], s.Tuple.SrcPort)
	be16put(buf[2:], s.Tuple.DstPort)
	be32put(buf[4:], s.Seq)
	be32put(buf[8:], s.Ack)
	buf[12] = uint8((headerLen+padded)/4) << 4
	buf[13] = uint8(s.Flags)
	w := s.Window >> windowShift
	if w > 0xffff {
		w = 0xffff
	}
	be16put(buf[14:], uint16(w))
	// Checksum (buf[16:18]) and urgent pointer stay zero: the simulator's
	// links do not corrupt packets, and we do not negotiate DSS checksums.
	off := headerLen
	for _, o := range s.Options {
		n := o.wireLen()
		buf[off] = o.kind()
		buf[off+1] = uint8(n)
		o.encode(buf[off : off+n])
		off += n
	}
	for off < headerLen+padded {
		buf[off] = optKindNOP
		off++
	}
	return dst, nil
}

// UnmarshalInto decodes a TCP wire image produced by AppendWire (or any
// TCP segment restricted to NOP/EOL/SACK/MPTCP options) into s in place;
// src and dst carry the IP addresses from the enclosing IP header. s is
// Reset first and its scratch options are reused — the first DSS, SACK,
// MP_CAPABLE and MP_JOIN decode without allocating — so a pooled segment
// can be refilled from the wire with no per-segment heap work. On error s
// is left in an undefined (but Reset-able) state.
func UnmarshalInto(s *Segment, b []byte, src, dst netip.Addr) error {
	if len(b) < headerLen {
		return errors.New("seg: truncated header")
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < headerLen || dataOff > len(b) {
		return fmt.Errorf("seg: bad data offset %d", dataOff)
	}
	s.Reset()
	s.Tuple = FourTuple{
		SrcIP:   src,
		DstIP:   dst,
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
	}
	s.Seq = binary.BigEndian.Uint32(b[4:])
	s.Ack = binary.BigEndian.Uint32(b[8:])
	s.Flags = Flags(b[13])
	s.Window = uint32(binary.BigEndian.Uint16(b[14:])) << windowShift
	s.PayloadLen = len(b) - dataOff
	opts := b[headerLen:dataOff]
	for len(opts) > 0 {
		switch opts[0] {
		case optKindEOL:
			opts = nil
			continue
		case optKindNOP:
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			return errors.New("seg: truncated option")
		}
		n := int(opts[1])
		if n < 2 || n > len(opts) {
			return fmt.Errorf("seg: bad option length %d", n)
		}
		switch opts[0] {
		case optKindMPTCP:
			var err error
			sub := Subtype(0xff)
			if n >= 3 {
				sub = Subtype(opts[2] >> 4)
			}
			switch {
			case sub == SubDSS && s.claimed&slotDSS == 0:
				err = decodeDSSInto(s.ScratchDSS(), opts[:n])
			case sub == SubMPCapable && s.claimed&slotMPCapable == 0:
				err = decodeMPCapableInto(s.ScratchMPCapable(), opts[:n])
			case sub == SubMPJoin && s.claimed&slotMPJoin == 0:
				err = decodeMPJoinInto(s.ScratchMPJoin(), opts[:n])
			default:
				var o Option
				if o, err = decodeOption(opts[:n]); err == nil {
					s.Options = append(s.Options, o)
				}
			}
			if err != nil {
				return err
			}
		case optKindSACK:
			if s.claimed&slotSACK == 0 {
				if err := decodeSACKInto(s.ScratchSACK(), opts[:n]); err != nil {
					return err
				}
			} else {
				o := &SACK{}
				if err := decodeSACKInto(o, opts[:n]); err != nil {
					return err
				}
				s.Options = append(s.Options, o)
			}
		}
		opts = opts[n:]
	}
	return nil
}

// decodeSACKInto parses a classic SACK option (kind/len already validated)
// into o, reusing o's block capacity.
func decodeSACKInto(o *SACK, b []byte) error {
	if (len(b)-2)%8 != 0 {
		return fmt.Errorf("seg: SACK bad length %d", len(b))
	}
	for off := 2; off < len(b); off += 8 {
		o.Blocks = append(o.Blocks, SackBlock{
			Lo: binary.BigEndian.Uint32(b[off:]),
			Hi: binary.BigEndian.Uint32(b[off+4:]),
		})
	}
	return nil
}

// decodeDSSInto parses a DSS option (kind/len already validated) into d.
func decodeDSSInto(d *DSS, b []byte) error {
	if len(b) < 4 {
		return errors.New("seg: DSS too short")
	}
	flags := b[3]
	d.DataFIN = flags&0x10 != 0
	d.HasDataAck = flags&0x01 != 0
	d.HasMap = flags&0x04 != 0
	off := 4
	if d.HasDataAck {
		if flags&0x02 == 0 {
			return errors.New("seg: DSS 4-byte data ack unsupported")
		}
		if len(b) < off+8 {
			return errors.New("seg: DSS truncated data ack")
		}
		d.DataAck = binary.BigEndian.Uint64(b[off:])
		off += 8
	}
	if d.HasMap {
		if flags&0x08 == 0 {
			return errors.New("seg: DSS 4-byte DSN unsupported")
		}
		if len(b) < off+16 {
			return errors.New("seg: DSS truncated mapping")
		}
		d.DataSeq = binary.BigEndian.Uint64(b[off:])
		d.SubflowSeq = binary.BigEndian.Uint32(b[off+8:])
		d.MapLen = binary.BigEndian.Uint16(b[off+12:])
		off += 16
	}
	if len(b) != off {
		return fmt.Errorf("seg: DSS bad length %d (want %d)", len(b), off)
	}
	return nil
}

// decodeMPCapableInto parses an MP_CAPABLE option (kind/len already
// validated, at least 3 bytes) into a zeroed o.
func decodeMPCapableInto(o *MPCapable, b []byte) error {
	if len(b) != 12 && len(b) != 20 {
		return fmt.Errorf("seg: MP_CAPABLE bad length %d", len(b))
	}
	o.Version = b[2] & 0xf
	o.ChecksumReq = b[3]&0x80 != 0
	o.SenderKey = binary.BigEndian.Uint64(b[4:])
	if len(b) == 20 {
		o.ReceiverKey = binary.BigEndian.Uint64(b[12:])
		o.HasReceiver = true
	}
	return nil
}

// decodeMPJoinInto parses an MP_JOIN option (kind/len already validated,
// at least 3 bytes) into a zeroed j.
func decodeMPJoinInto(j *MPJoin, b []byte) error {
	switch len(b) {
	case 12:
		j.Form = JoinSYN
		j.Token = binary.BigEndian.Uint32(b[4:])
		j.Nonce = binary.BigEndian.Uint32(b[8:])
	case 16:
		j.Form = JoinSYNACK
		j.TruncHMAC = binary.BigEndian.Uint64(b[4:])
		j.Nonce = binary.BigEndian.Uint32(b[12:])
	case 24:
		j.Form = JoinACK
		copy(j.FullHMAC[:], b[4:])
	default:
		return fmt.Errorf("seg: MP_JOIN bad length %d", len(b))
	}
	j.Backup = b[2]&0x01 != 0
	j.AddrID = b[3]
	return nil
}

// decodeOption parses one MPTCP option (kind/len already validated).
func decodeOption(b []byte) (Option, error) {
	if len(b) < 3 {
		return nil, errors.New("seg: MPTCP option too short")
	}
	sub := Subtype(b[2] >> 4)
	switch sub {
	case SubMPCapable:
		o := &MPCapable{}
		if err := decodeMPCapableInto(o, b); err != nil {
			return nil, err
		}
		return o, nil

	case SubMPJoin:
		j := &MPJoin{}
		if err := decodeMPJoinInto(j, b); err != nil {
			return nil, err
		}
		return j, nil

	case SubDSS:
		d := &DSS{}
		if err := decodeDSSInto(d, b); err != nil {
			return nil, err
		}
		return d, nil

	case SubAddAddr:
		if len(b) < 4 {
			return nil, errors.New("seg: ADD_ADDR truncated")
		}
		ipver := b[2] & 0xf
		a := &AddAddr{AddrID: b[3]}
		var alen int
		switch ipver {
		case 4:
			alen = 4
		case 6:
			alen = 16
		default:
			return nil, fmt.Errorf("seg: ADD_ADDR bad ipver %d", ipver)
		}
		if len(b) < 4+alen {
			return nil, errors.New("seg: ADD_ADDR truncated")
		}
		addr, ok := netip.AddrFromSlice(b[4 : 4+alen])
		if !ok {
			return nil, errors.New("seg: ADD_ADDR bad address")
		}
		a.Addr = addr
		switch len(b) {
		case 4 + alen:
		case 4 + alen + 2:
			a.HasPort = true
			a.Port = binary.BigEndian.Uint16(b[4+alen:])
		default:
			return nil, fmt.Errorf("seg: ADD_ADDR bad length %d", len(b))
		}
		return a, nil

	case SubRemoveAddr:
		return &RemoveAddr{AddrIDs: append([]uint8(nil), b[3:]...)}, nil

	case SubMPPrio:
		p := &MPPrio{Backup: b[2]&0x01 != 0}
		switch len(b) {
		case 3:
		case 4:
			p.HasAddrID = true
			p.AddrID = b[3]
		default:
			return nil, fmt.Errorf("seg: MP_PRIO bad length %d", len(b))
		}
		return p, nil

	case SubMPFail:
		if len(b) != 12 {
			return nil, fmt.Errorf("seg: MP_FAIL bad length %d", len(b))
		}
		return &MPFail{DataSeq: binary.BigEndian.Uint64(b[4:])}, nil

	case SubFastClose:
		if len(b) != 12 {
			return nil, fmt.Errorf("seg: MP_FASTCLOSE bad length %d", len(b))
		}
		return &FastClose{ReceiverKey: binary.BigEndian.Uint64(b[4:])}, nil
	}
	return nil, fmt.Errorf("seg: unknown MPTCP subtype %d", sub)
}
