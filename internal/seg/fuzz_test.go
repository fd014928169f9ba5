package seg

import (
	"bytes"
	"testing"
)

// FuzzSegUnmarshalInto hammers the segment decoder — the one place TCP
// wire bytes enter from outside (the socket transport): it must never
// panic, and whatever it accepts must re-encode with AppendWire into an
// image that keeps the input's fixed header prefix (ports, sequence
// numbers, flags, window) and payload length, and that decodes back to
// the same segment.
func FuzzSegUnmarshalInto(f *testing.F) {
	seed := func(s *Segment) {
		s.Tuple = tuple()
		wire, err := s.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	seed(&Segment{Seq: 1000, Ack: 2000, Flags: ACK | PSH, Window: 65536, PayloadLen: 1400})
	seed(&Segment{Seq: 7, Flags: SYN, Window: 29184, Options: []Option{&MPCapable{SenderKey: 0xdeadbeefcafef00d}}})
	for _, j := range joinForms {
		seed(&Segment{Flags: SYN, Window: 256, Options: []Option{j}})
	}
	for _, d := range dssVariants {
		seed(&Segment{Flags: ACK, Window: 1 << 16, PayloadLen: int(d.MapLen),
			Options: []Option{d, &SACK{Blocks: []SackBlock{{Lo: 5, Hi: 9}}}}})
	}
	for _, o := range addrOptions {
		seed(&Segment{Flags: ACK, Window: 256, Options: []Option{o}})
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Segment
		if err := UnmarshalInto(&s, b, ipA, ipB); err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		wire, err := s.AppendWire([]byte{0xff})
		if err != nil {
			t.Fatalf("accepted segment does not re-encode: %v\n%v", err, &s)
		}
		if wire[0] != 0xff {
			t.Fatal("AppendWire clobbered the destination prefix")
		}
		wire = wire[1:]
		// Byte 12 (data offset) may shrink when ignored options drop out,
		// and the checksum/urgent bytes past 16 are not modelled.
		if !bytes.Equal(wire[:12], b[:12]) || !bytes.Equal(wire[13:16], b[13:16]) {
			t.Fatalf("fixed header changed:\n in %x\nout %x", b[:16], wire[:16])
		}
		if got, want := len(wire)-int(wire[12]>>4)*4, len(b)-int(b[12]>>4)*4; got != want {
			t.Fatalf("payload length %d, want %d", got, want)
		}
		var s2 Segment
		if err := UnmarshalInto(&s2, wire, ipA, ipB); err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if !s2.Equal(&s) {
			t.Fatalf("round trip mismatch:\n in=%v\nout=%v", &s, &s2)
		}
	})
}
