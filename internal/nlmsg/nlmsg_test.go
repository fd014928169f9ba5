package nlmsg

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/seg"
)

var testTuple = seg.FourTuple{
	SrcIP:   netip.MustParseAddr("10.1.0.1"),
	DstIP:   netip.MustParseAddr("10.99.0.1"),
	SrcPort: 45000,
	DstPort: 80,
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Cmd: EvTimeout, Seq: 42, Pid: 7,
		Attrs: []Attr{
			U32(AttrToken, 0xdeadbeef),
			U64(AttrRTO, uint64(2*time.Second)),
			U8(AttrAddrID, 3),
			U16(AttrPort, 8080),
		},
	}
	b := m.Marshal()
	got, n, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

func TestMessageStream(t *testing.T) {
	// Several messages concatenated, as read from a socket buffer.
	var buf []byte
	for i := 0; i < 5; i++ {
		m := &Message{Cmd: EvCreated, Seq: uint32(i), Attrs: []Attr{U32(AttrToken, uint32(i))}}
		buf = append(buf, m.Marshal()...)
	}
	count := 0
	for len(buf) > 0 {
		m, n, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint32(count) {
			t.Fatalf("message %d has seq %d", count, m.Seq)
		}
		buf = buf[n:]
		count++
	}
	if count != 5 {
		t.Fatalf("parsed %d messages", count)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	m := (&Message{Cmd: EvClosed}).Marshal()
	m[0] = 200 // length beyond buffer
	if _, _, err := Unmarshal(m); err == nil {
		t.Fatal("bad length accepted")
	}
	m2 := (&Message{Cmd: EvClosed}).Marshal()
	m2[4] = 0xFF // wrong family
	if _, _, err := Unmarshal(m2); err == nil {
		t.Fatal("wrong family accepted")
	}
}

func TestAttrAccessorErrors(t *testing.T) {
	a := Attr{Type: AttrToken, Data: []byte{1}}
	if _, err := a.AsU32(); err == nil {
		t.Fatal("short u32 accepted")
	}
	if _, err := a.AsU64(); err == nil {
		t.Fatal("short u64 accepted")
	}
	bad := Attr{Type: AttrAddr, Data: []byte{1, 2, 3}}
	if _, err := bad.AsAddr(); err == nil {
		t.Fatal("3-byte address accepted")
	}
}

func TestEventRoundTripAllKinds(t *testing.T) {
	addr := netip.MustParseAddr("192.0.2.9")
	events := []*Event{
		{Kind: EvCreated, At: time.Second, Token: 1, Tuple: testTuple, HasTuple: true},
		{Kind: EvEstablished, Token: 2, Tuple: testTuple, HasTuple: true},
		{Kind: EvClosed, Token: 3},
		{Kind: EvSubEstablished, Token: 4, Tuple: testTuple, HasTuple: true},
		{Kind: EvSubClosed, Token: 5, Tuple: testTuple, HasTuple: true, Errno: 110},
		{Kind: EvAddAddr, Token: 6, AddrID: 2, Addr: addr, Port: 443},
		{Kind: EvRemAddr, Token: 7, AddrID: 2},
		{Kind: EvTimeout, Token: 8, Tuple: testTuple, HasTuple: true, RTO: 3200 * time.Millisecond, Backoffs: 4},
		{Kind: EvLocalAddrUp, Addr: addr},
		{Kind: EvLocalAddrDown, Addr: addr},
	}
	for _, e := range events {
		b := e.Marshal(9, 1)
		m, _, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%v: %v", e.Kind, err)
		}
		got, err := ParseEvent(m)
		if err != nil {
			t.Fatalf("%v: %v", e.Kind, err)
		}
		if got.Kind != e.Kind || got.Token != e.Token || got.Errno != e.Errno ||
			got.RTO != e.RTO || got.Backoffs != e.Backoffs || got.AddrID != e.AddrID ||
			got.Port != e.Port || got.At != e.At {
			t.Fatalf("%v mismatch:\n in=%+v\nout=%+v", e.Kind, e, got)
		}
		if e.HasTuple && got.Tuple != e.Tuple {
			t.Fatalf("%v tuple mismatch", e.Kind)
		}
		if e.Addr.IsValid() && got.Addr != e.Addr {
			t.Fatalf("%v addr mismatch", e.Kind)
		}
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmds := []*Command{
		{Kind: CmdSubscribe, Seq: 1, Pid: 5, Mask: MaskOf(EvTimeout, EvSubClosed)},
		{Kind: CmdCreateSubflow, Seq: 2, Token: 99, Tuple: testTuple, Backup: true},
		{Kind: CmdRemoveSubflow, Seq: 3, Token: 99, Tuple: testTuple},
		{Kind: CmdSetBackup, Seq: 4, Token: 99, Tuple: testTuple, Backup: false},
		{Kind: CmdGetInfo, Seq: 5, Token: 99},
		{Kind: CmdAnnounceAddr, Seq: 6, Token: 99, Addr: netip.MustParseAddr("10.2.0.1"), Port: 80},
	}
	for _, c := range cmds {
		b := c.Marshal()
		m, _, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		got, err := ParseCommand(m)
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		if got.Kind != c.Kind || got.Seq != c.Seq || got.Token != c.Token ||
			got.Backup != c.Backup || got.Mask != c.Mask || got.Port != c.Port {
			t.Fatalf("%v mismatch:\n in=%+v\nout=%+v", c.Kind, c, got)
		}
	}
}

func TestInfoReplyRoundTrip(t *testing.T) {
	info := &ConnInfo{
		Token:    0xabc,
		SndUna:   1 << 40,
		AppNxt:   1<<40 + 5000,
		RcvBytes: 12345,
		Subflows: []SubflowInfo{
			{Tuple: testTuple, State: 3, Backup: false, Cwnd: 14800,
				SRTT: 20 * time.Millisecond, RTO: 220 * time.Millisecond,
				PacingRate: 1_000_000, Flight: 2800},
			{Tuple: testTuple.Reverse(), State: 3, Backup: true, Cwnd: 2760,
				SRTT: 45 * time.Millisecond, RTO: time.Second, Backoffs: 2,
				PacingRate: 60_000, Flight: 0},
		},
	}
	b := MarshalInfo(info, 77, 3)
	m, _, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 77 {
		t.Fatalf("seq = %d", m.Seq)
	}
	got, err := ParseInfo(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, got) {
		t.Fatalf("mismatch:\n in=%+v\nout=%+v", info, got)
	}
	var mi Message
	var into ConnInfo
	if _, err := UnmarshalInto(AppendInfo(nil, info, 77, 3), &mi); err != nil {
		t.Fatal(err)
	}
	if err := ParseInfoInto(&mi, &into); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, &into) {
		t.Fatalf("in-place mismatch:\n in=%+v\nout=%+v", info, &into)
	}
	if err := ParseInfoInto(&Message{Cmd: ReplyAck}, &into); err == nil || into.Token != 0 || len(into.Subflows) != 0 {
		t.Fatalf("an ack parsed as info: err %v, left %+v", err, &into)
	}
}

func TestAckRoundTrip(t *testing.T) {
	b := MarshalAck(110, 5, 2)
	m, _, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	errno, err := ParseAck(m)
	if err != nil || errno != 110 {
		t.Fatalf("errno=%d err=%v", errno, err)
	}
	if _, err := ParseAck(&Message{Cmd: EvClosed}); err == nil {
		t.Fatal("non-ack parsed as ack")
	}
}

func TestEventMask(t *testing.T) {
	m := MaskOf(EvTimeout, EvSubClosed)
	if !m.Has(EvTimeout) || !m.Has(EvSubClosed) {
		t.Fatal("mask lost events")
	}
	if m.Has(EvCreated) {
		t.Fatal("mask has extra events")
	}
	if !MaskAll.Has(EvLocalAddrDown) {
		t.Fatal("MaskAll incomplete")
	}
}

func TestCmdString(t *testing.T) {
	if EvTimeout.String() != "timeout" || CmdCreateSubflow.String() != "create_subflow" {
		t.Fatal("names wrong")
	}
	if Cmd(250).String() == "" {
		t.Fatal("unknown cmd empty")
	}
}

// Property: Unmarshal never panics on arbitrary bytes.
func TestQuickUnmarshalRobust(t *testing.T) {
	f := func(b []byte) bool {
		m, _, err := Unmarshal(b)
		if err != nil {
			return true
		}
		_, _ = ParseEvent(m)
		_, _ = ParseCommand(m)
		_, _ = ParseInfo(m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// Property: attribute blocks round-trip through MarshalAttrs/UnmarshalAttrs.
func TestQuickAttrsRoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		var attrs []Attr
		for i, v := range vals {
			attrs = append(attrs, U32(AttrType(i%24+1), v))
		}
		got, err := UnmarshalAttrs(MarshalAttrs(attrs))
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(attrs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Fatal(err)
	}
}
