package seg

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	ipA = netip.MustParseAddr("10.0.0.1")
	ipB = netip.MustParseAddr("10.0.1.2")
	ip6 = netip.MustParseAddr("2001:db8::7")
)

func tuple() FourTuple {
	return FourTuple{SrcIP: ipA, DstIP: ipB, SrcPort: 43211, DstPort: 80}
}

// unmarshal decodes a wire image into a fresh segment.
func unmarshal(b []byte, src, dst netip.Addr) (*Segment, error) {
	s := &Segment{}
	return s, UnmarshalInto(s, b, src, dst)
}

func roundTrip(t *testing.T, s *Segment) *Segment {
	t.Helper()
	b, err := s.AppendWire(nil)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	if len(b) != s.WireSize() {
		t.Fatalf("wire size %d != WireSize %d", len(b), s.WireSize())
	}
	got, err := unmarshal(b, s.Tuple.SrcIP, s.Tuple.DstIP)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestRoundTripPlain(t *testing.T) {
	s := &Segment{Tuple: tuple(), Seq: 1000, Ack: 2000, Flags: ACK | PSH, Window: 65536, PayloadLen: 1400}
	got := roundTrip(t, s)
	if !s.Equal(got) {
		t.Fatalf("round trip mismatch:\n in=%v\nout=%v", s, got)
	}
}

func TestRoundTripMPCapableSYN(t *testing.T) {
	s := &Segment{Tuple: tuple(), Seq: 7, Flags: SYN, Window: 29184,
		Options: []Option{&MPCapable{Version: 0, SenderKey: 0xdeadbeefcafef00d}}}
	got := roundTrip(t, s)
	if !s.Equal(got) {
		t.Fatalf("mismatch:\n in=%v\nout=%v", s, got)
	}
}

func TestRoundTripMPCapableThirdACK(t *testing.T) {
	s := &Segment{Tuple: tuple(), Seq: 8, Ack: 100, Flags: ACK, Window: 512,
		Options: []Option{&MPCapable{SenderKey: 1, ReceiverKey: 2, HasReceiver: true, ChecksumReq: true}}}
	got := roundTrip(t, s)
	if !s.Equal(got) {
		t.Fatalf("mismatch:\n in=%v\nout=%v", s, got)
	}
}

// The option tables below feed both the round-trip tests and the seed
// corpus of FuzzSegUnmarshalInto.
var (
	joinForms = []*MPJoin{
		{Form: JoinSYN, Token: 0xaabbccdd, Nonce: 42, AddrID: 3, Backup: true},
		{Form: JoinSYNACK, TruncHMAC: 0x1122334455667788, Nonce: 7, AddrID: 1},
		{Form: JoinACK, FullHMAC: [20]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}},
	}
	dssVariants = []*DSS{
		{HasDataAck: true, DataAck: 1 << 40},
		{HasMap: true, DataSeq: 99, SubflowSeq: 5, MapLen: 1400},
		{HasDataAck: true, DataAck: 12, HasMap: true, DataSeq: 34, SubflowSeq: 56, MapLen: 78},
		{HasDataAck: true, DataAck: 3, DataFIN: true, HasMap: true, DataSeq: 9, MapLen: 1},
	}
	addrOptions = []Option{
		&AddAddr{AddrID: 2, Addr: ipB},
		&AddAddr{AddrID: 3, Addr: ipB, Port: 8080, HasPort: true},
		&AddAddr{AddrID: 4, Addr: ip6},
		&RemoveAddr{AddrIDs: []uint8{1, 2, 3}},
		&MPPrio{Backup: true},
		&MPPrio{Backup: false, HasAddrID: true, AddrID: 9},
		&MPFail{DataSeq: 1 << 50},
		&FastClose{ReceiverKey: 0xfeed},
	}
)

func TestRoundTripMPJoinForms(t *testing.T) {
	flagSets := []Flags{SYN, SYN | ACK, ACK}
	for i, j := range joinForms {
		s := &Segment{Tuple: tuple(), Flags: flagSets[i], Window: 256, Options: []Option{j}}
		got := roundTrip(t, s)
		if !s.Equal(got) {
			t.Fatalf("form %d mismatch:\n in=%v\nout=%v", j.Form, s, got)
		}
	}
}

func TestRoundTripDSSVariants(t *testing.T) {
	for _, d := range dssVariants {
		s := &Segment{Tuple: tuple(), Flags: ACK, Window: 1 << 16, PayloadLen: int(d.MapLen), Options: []Option{d}}
		got := roundTrip(t, s)
		if !s.Equal(got) {
			t.Fatalf("DSS mismatch:\n in=%v\nout=%v", s, got)
		}
	}
}

func TestRoundTripAddrOptions(t *testing.T) {
	for _, o := range addrOptions {
		s := &Segment{Tuple: tuple(), Flags: ACK, Window: 256, Options: []Option{o}}
		got := roundTrip(t, s)
		if !s.Equal(got) {
			t.Fatalf("%s mismatch:\n in=%v\nout=%v", o.Subtype(), s, got)
		}
	}
}

func TestMultipleOptions(t *testing.T) {
	s := &Segment{Tuple: tuple(), Flags: ACK, Window: 2560, PayloadLen: 100,
		Options: []Option{
			&DSS{HasDataAck: true, DataAck: 5, HasMap: true, DataSeq: 6, MapLen: 100},
			&MPPrio{Backup: true},
		}}
	got := roundTrip(t, s)
	if !s.Equal(got) {
		t.Fatalf("mismatch:\n in=%v\nout=%v", s, got)
	}
	if got.DSS() == nil || got.Option(SubMPPrio) == nil {
		t.Fatal("option accessors failed")
	}
	if got.MPCapable() != nil || got.MPJoin() != nil {
		t.Fatal("absent options reported present")
	}
}

func TestOptionsTooLong(t *testing.T) {
	s := &Segment{Tuple: tuple(),
		Options: []Option{
			&DSS{HasDataAck: true, HasMap: true},
			&MPJoin{Form: JoinACK},
		}} // 28 + 24 = 52 > 40
	if _, err := s.AppendWire(nil); err == nil {
		t.Fatal("expected options-too-long error")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := unmarshal([]byte{1, 2, 3}, ipA, ipB); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Bad data offset.
	b := make([]byte, 20)
	b[12] = 1 << 4 // dataOff = 4 < 20
	if _, err := unmarshal(b, ipA, ipB); err == nil {
		t.Fatal("bad data offset accepted")
	}
	// Truncated option.
	s := &Segment{Tuple: tuple(), Flags: SYN, Options: []Option{&MPCapable{SenderKey: 1}}}
	wire, _ := s.AppendWire(nil)
	wire[21] = 40 // option length beyond buffer
	if _, err := unmarshal(wire, ipA, ipB); err == nil {
		t.Fatal("bad option length accepted")
	}
}

func TestSeqEnd(t *testing.T) {
	cases := []struct {
		s    Segment
		want uint32
	}{
		{Segment{Seq: 10, PayloadLen: 5}, 15},
		{Segment{Seq: 10, Flags: SYN}, 11},
		{Segment{Seq: 10, Flags: FIN, PayloadLen: 3}, 14},
		{Segment{Seq: 10, Flags: SYN | FIN}, 12},
	}
	for _, c := range cases {
		if got := c.s.SeqEnd(); got != c.want {
			t.Fatalf("SeqEnd(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestFourTupleReverse(t *testing.T) {
	ft := tuple()
	r := ft.Reverse()
	if r.SrcIP != ft.DstIP || r.DstPort != ft.SrcPort {
		t.Fatalf("Reverse wrong: %v", r)
	}
	if r.Reverse() != ft {
		t.Fatal("double reverse not identity")
	}
}

func TestFlagsString(t *testing.T) {
	if (SYN | ACK).String() != "SYN|ACK" {
		t.Fatalf("got %q", (SYN | ACK).String())
	}
	if Flags(0).String() != "none" {
		t.Fatalf("got %q", Flags(0).String())
	}
}

func TestClone(t *testing.T) {
	s := &Segment{Tuple: tuple(), Flags: ACK,
		Options: []Option{&RemoveAddr{AddrIDs: []uint8{1, 2}}}}
	c := Shared.Clone(s)
	c.Options[0].(*RemoveAddr).AddrIDs[0] = 99
	if s.Options[0].(*RemoveAddr).AddrIDs[0] == 99 {
		t.Fatal("Clone shares option state")
	}
}

// TestCopyFromDeepCopiesEveryOption copies a segment carrying every option
// type, plus a second DSS, SACK, MP_JOIN and MP_CAPABLE: the first of each
// of those four lands in a scratch slot, everything else takes the clone
// path. The copy must equal the source, share no option with it, and keep
// its values when every source option is then mutated in place.
func TestCopyFromDeepCopiesEveryOption(t *testing.T) {
	build := func() *Segment {
		s := &Segment{Tuple: tuple(), Flags: ACK, Seq: 7, Ack: 9, Window: 1 << 16, PayloadLen: 100}
		for i := uint64(0); i < 2; i++ {
			s.Options = append(s.Options,
				&DSS{HasDataAck: true, DataAck: 100 + i, HasMap: true, DataSeq: 200 + i, SubflowSeq: 3, MapLen: 10, DataFIN: i == 1},
				&SACK{Blocks: []SackBlock{{Lo: 10, Hi: 20 + uint32(i)}, {Lo: 30, Hi: 40}}},
				&MPJoin{Form: JoinSYN, Token: 0xabcd, Nonce: uint32(i), AddrID: 2},
				&MPCapable{Version: 0, SenderKey: 0x1111 + i, ReceiverKey: 0x2222, HasReceiver: true},
			)
		}
		s.Options = append(s.Options,
			&AddAddr{AddrID: 3, Addr: ip6, Port: 8080, HasPort: true},
			&RemoveAddr{AddrIDs: []uint8{4, 5}},
			&MPPrio{Backup: true, AddrID: 6, HasAddrID: true},
			&MPFail{DataSeq: 77},
			&FastClose{ReceiverKey: 0x3333},
		)
		return s
	}
	src, want := build(), build()
	kinds := map[Subtype]bool{}
	for _, o := range src.Options {
		kinds[o.Subtype()] = true
	}
	if len(kinds) != 9 {
		t.Fatalf("the source carries %d option types, want all 9", len(kinds))
	}

	dst := Shared.Get()
	defer Shared.Put(dst)
	dst.CopyFrom(src)
	if !dst.Equal(want) {
		t.Fatalf("copy %v\n differs from %v", dst, want)
	}
	for i, o := range dst.Options {
		if o == src.Options[i] {
			t.Fatalf("option %d (%v) is the source's own", i, o)
		}
	}

	for _, o := range src.Options {
		switch o := o.(type) {
		case *DSS:
			o.DataAck++
		case *SACK:
			o.Blocks[0].Hi++
		case *MPJoin:
			o.Nonce++
		case *MPCapable:
			o.SenderKey++
		case *AddAddr:
			o.Port++
		case *RemoveAddr:
			o.AddrIDs[0]++
		case *MPPrio:
			o.Backup = !o.Backup
		case *MPFail:
			o.DataSeq++
		case *FastClose:
			o.ReceiverKey++
		}
	}
	if src.Equal(want) {
		t.Fatal("the mutations changed nothing: the check below checks nothing")
	}
	if !dst.Equal(want) {
		t.Fatalf("mutating the source changed the copy:\n got %v\nwant %v", dst, want)
	}
}

func TestTokenAndIDSN(t *testing.T) {
	// Determinism and distinctness; plus the RFC property that token and
	// IDSN come from disjoint parts of the same digest.
	k := uint64(0x0102030405060708)
	if Token(k) != Token(k) {
		t.Fatal("Token not deterministic")
	}
	if IDSN(k) != IDSN(k) {
		t.Fatal("IDSN not deterministic")
	}
	if Token(k) == Token(k+1) {
		t.Fatal("distinct keys gave equal tokens (SHA-1 collision?!)")
	}
}

// joinView is what one end of an MP_JOIN handshake knows: its own key and
// nonce, and the peer's as learnt from the wire.
type joinView struct {
	localKey, remoteKey     uint64
	localNonce, remoteNonce uint32
}

// sign computes the HMAC this end sends: its own key and nonce first.
func (v joinView) sign() [20]byte {
	return JoinHMAC(v.localKey, v.remoteKey, v.localNonce, v.remoteNonce)
}

// expect computes the HMAC this end requires of the peer: the peer's key
// and nonce first, each taken from this end's own view.
func (v joinView) expect() [20]byte {
	return JoinHMAC(v.remoteKey, v.localKey, v.remoteNonce, v.localNonce)
}

func TestJoinHMACAgreement(t *testing.T) {
	a := joinView{localKey: 111, remoteKey: 222, localNonce: 333, remoteNonce: 444}
	b := joinView{localKey: a.remoteKey, remoteKey: a.localKey, localNonce: a.remoteNonce, remoteNonce: a.localNonce}
	// SYN+ACK: B signs, A verifies from its own view; third ACK: the reverse.
	if b.sign() != a.expect() {
		t.Fatal("A rejects B's SYN+ACK HMAC")
	}
	if a.sign() != b.expect() {
		t.Fatal("B rejects A's third-ACK HMAC")
	}
	// The two directions are distinct MACs: a reflected one must not verify.
	if a.sign() == a.expect() {
		t.Fatal("HMAC insensitive to key and nonce order")
	}
	// A verifier holding another connection's key, or a stale nonce, rejects.
	wrongKey, staleNonce := a, a
	wrongKey.remoteKey++
	staleNonce.remoteNonce++
	if b.sign() == wrongKey.expect() || b.sign() == staleNonce.expect() {
		t.Fatal("HMAC verified against the wrong key or nonce")
	}
	// The SYN+ACK carries the leftmost 64 bits of the same MAC.
	full := b.sign()
	if got := TruncatedJoinHMAC(b.localKey, b.remoteKey, b.localNonce, b.remoteNonce); got != binary.BigEndian.Uint64(full[:8]) {
		t.Fatalf("truncated HMAC %x is not the prefix of %x", got, full)
	}
}

func TestNewKeyDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := NewKey(rng)
		if seen[k] {
			t.Fatal("duplicate key in 1000 draws")
		}
		seen[k] = true
	}
}

// Property: any segment built from generator-driven fields survives a
// marshal/unmarshal round trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seq, ack uint32, win uint16, pay uint16, flags uint8,
		key uint64, dack, dseq uint64, ssn uint32, mlen uint16, which uint8) bool {
		s := &Segment{
			Tuple:      tuple(),
			Seq:        seq,
			Ack:        ack,
			Flags:      Flags(flags & 0x3f),
			Window:     uint32(win) << windowShift,
			PayloadLen: int(pay % 2000),
		}
		switch which % 5 {
		case 0:
			s.Options = []Option{&MPCapable{SenderKey: key}}
		case 1:
			s.Options = []Option{&MPJoin{Form: JoinSYN, Token: uint32(key), Nonce: ssn}}
		case 2:
			s.Options = []Option{&DSS{HasDataAck: true, DataAck: dack, HasMap: true, DataSeq: dseq, SubflowSeq: ssn, MapLen: mlen}}
		case 3:
			s.Options = []Option{&AddAddr{AddrID: uint8(key), Addr: ipB, Port: uint16(dack), HasPort: true}}
		case 4:
			s.Options = []Option{&DSS{HasDataAck: true, DataAck: dack}}
		}
		b, err := s.AppendWire(nil)
		if err != nil {
			return false
		}
		got, err := unmarshal(b, s.Tuple.SrcIP, s.Tuple.DstIP)
		if err != nil {
			return false
		}
		return s.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on arbitrary bytes; it either errors or
// yields a segment that re-marshals.
func TestQuickUnmarshalRobust(t *testing.T) {
	f := func(b []byte) bool {
		s, err := unmarshal(b, ipA, ipB)
		if err != nil {
			return true
		}
		_, err = s.AppendWire(nil)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
