package seg

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// Every subtype, option and segment names itself in traces. A subtype,
// SACK's pseudo-subtype too, prints its own name, never the "MPTCP(0x..)"
// fallback. Every subtype has an option, and each option prints, in each
// of its forms, a rendering of its own led by its subtype's name. A
// segment prints its tuple, its flags and every option.
func TestStringNames(t *testing.T) {
	subtypes := map[string]Subtype{
		"SubMPCapable": SubMPCapable, "SubMPJoin": SubMPJoin, "SubDSS": SubDSS,
		"SubAddAddr": SubAddAddr, "SubRemoveAddr": SubRemoveAddr, "SubMPPrio": SubMPPrio,
		"SubMPFail": SubMPFail, "SubFastClose": SubFastClose, "SubSACK": SubSACK,
	}
	names := map[string]string{}
	for c, sub := range subtypes {
		names[c] = sub.String()
	}
	testutil.CheckNames(t, "Subtype", "MPTCP(", names)

	opts := []Option{
		&SACK{Blocks: []SackBlock{{Lo: 1, Hi: 2}}},
		&MPCapable{SenderKey: 1},
		&MPCapable{SenderKey: 1, ReceiverKey: 2, HasReceiver: true},
		&MPJoin{Form: JoinSYN, Token: 3, AddrID: 1},
		&MPJoin{Form: JoinSYNACK, TruncHMAC: 4, AddrID: 1},
		&MPJoin{Form: JoinACK},
		&DSS{HasDataAck: true, DataAck: 5},
		&DSS{HasMap: true, DataSeq: 6, MapLen: 7, SubflowSeq: 8, DataFIN: true},
		&AddAddr{AddrID: 2, Addr: ipB},
		&AddAddr{AddrID: 2, Addr: ipB, Port: 80, HasPort: true},
		&RemoveAddr{AddrIDs: []uint8{2}},
		&MPPrio{Backup: true},
		&MPFail{DataSeq: 9},
		&FastClose{ReceiverKey: 10},
	}
	seen := map[string]bool{}
	covered := map[Subtype]bool{}
	for _, o := range opts {
		s := o.String()
		if !strings.HasPrefix(s, o.Subtype().String()) || seen[s] {
			t.Errorf("%T prints %q: not led by %s, or not its own", o, s, o.Subtype())
		}
		seen[s] = true
		covered[o.Subtype()] = true
	}
	for c, sub := range subtypes {
		if !covered[sub] {
			t.Errorf("no option of subtype %s", c)
		}
	}

	sg := &Segment{Tuple: tuple(), Flags: SYN | ACK, Seq: 11, Ack: 12, PayloadLen: 13, Options: opts}
	s := sg.String()
	for _, want := range []string{"10.0.0.1:43211->10.0.1.2:80", "[SYN|ACK] seq=11 ack=12 len=13"} {
		if !strings.Contains(s, want) {
			t.Errorf("segment prints %q, without %q", s, want)
		}
	}
	for _, o := range opts {
		if !strings.Contains(s, " "+o.String()) {
			t.Errorf("segment prints %q, without option %s", s, o)
		}
	}
}
