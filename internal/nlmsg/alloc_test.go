package nlmsg

import (
	"bytes"
	"slices"
	"testing"
)

// TestAppendMarshalMatchesLegacy pins the pooled append codec
// byte-identical to the independent allocating implementation for one
// exemplar of every message kind. The two encoders are deliberately
// separate code paths: this test is what keeps them the same wire format.
func TestAppendMarshalMatchesLegacy(t *testing.T) {
	for _, e := range exemplarEvents() {
		got := e.AppendMarshal(nil, 9, 1)
		want := e.Marshal(9, 1)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: AppendMarshal differs from Marshal:\n got %x\nwant %x", e.Kind, got, want)
		}
	}
	for _, c := range exemplarCommands() {
		got := c.AppendMarshal(nil)
		want := c.Marshal()
		if !bytes.Equal(got, want) {
			t.Errorf("%v: AppendMarshal differs from Marshal:\n got %x\nwant %x", c.Kind, got, want)
		}
	}
	if got, want := AppendAck(nil, 110, 5, 2), MarshalAck(110, 5, 2); !bytes.Equal(got, want) {
		t.Errorf("AppendAck differs from MarshalAck:\n got %x\nwant %x", got, want)
	}
	for i, info := range exemplarInfos() {
		got := AppendInfo(nil, info, 77, 3)
		want := MarshalInfo(info, 77, 3)
		if !bytes.Equal(got, want) {
			t.Errorf("info %d: AppendInfo differs from MarshalInfo:\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestAppendInfoAllocFree pins the get-info reply — the one message with
// nested attributes — at zero allocations into a pooled buffer for a
// connection with as many as eight (IPv6) subflows.
func TestAppendInfoAllocFree(t *testing.T) {
	info := exemplarInfos()[2]
	for len(info.Subflows) < 8 {
		info.Subflows = append(info.Subflows, info.Subflows[1])
	}
	buf := newPool().Get()
	avg := testing.AllocsPerRun(100, func() {
		buf = AppendInfo(buf[:0], info, 7, 1)
	})
	if avg != 0 {
		t.Fatalf("AppendInfo allocates %.1f/op into a pooled buffer, want 0", avg)
	}
	if cap(buf) != wireBufCap {
		t.Fatalf("an 8-subflow reply (%d bytes) outgrew the pooled buffer: cap %d", len(buf), cap(buf))
	}
}

// TestMultiMessageFrame appends every exemplar event into one pooled
// buffer and walks it back out with UnmarshalInto: netlink messages are
// self-delimiting, so a coalesced frame must decode into exactly the
// events that went in, in order.
func TestMultiMessageFrame(t *testing.T) {
	evs := exemplarEvents()
	buf := Wire.Get()
	defer Wire.Put(buf)
	for _, e := range evs {
		buf = e.AppendMarshal(buf, 3, 9)
	}
	var m Message
	var e Event
	i, off := 0, 0
	for off < len(buf) {
		n, err := UnmarshalInto(buf[off:], &m)
		if err != nil {
			t.Fatalf("message %d at offset %d: %v", i, off, err)
		}
		if err := ParseEventInto(&m, &e); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if i >= len(evs) {
			t.Fatalf("frame decoded more than %d messages", len(evs))
		}
		if e != *evs[i] {
			t.Fatalf("message %d round trip mismatch:\n in=%+v\nout=%+v", i, evs[i], &e)
		}
		off += n
		i++
	}
	if i != len(evs) {
		t.Fatalf("frame decoded %d of %d messages", i, len(evs))
	}
}

// TestPooledRoundTripAllocFree pins the steady-state control-plane hot
// loop — marshal into a reused buffer, unmarshal in place, parse into a
// reused Event/Command/ConnInfo — at exactly zero allocations per
// iteration. The info replies include one of six subflows, whose
// attributes spill past the Message's inline scratch.
func TestPooledRoundTripAllocFree(t *testing.T) {
	evs := exemplarEvents()
	cmds := exemplarCommands()
	// A subflow without addresses is rejected by the parser (see
	// FuzzNlmsgRoundTrip); every other exemplar must round-trip.
	infos := slices.DeleteFunc(exemplarInfos(), func(in *ConnInfo) bool {
		return slices.ContainsFunc(in.Subflows, func(sf SubflowInfo) bool { return !sf.Tuple.SrcIP.IsValid() })
	})
	if len(infos) < 4 || len(infos[len(infos)-1].Subflows) < 5 {
		t.Fatalf("info exemplars lost the spilling reply: %d left", len(infos))
	}
	var m Message
	var e Event
	var c Command
	var ci ConnInfo
	buf := Wire.Get()
	defer func() { Wire.Put(buf) }()
	avg := testing.AllocsPerRun(100, func() {
		for _, src := range evs {
			buf = src.AppendMarshal(buf[:0], 7, 1)
			n, err := UnmarshalInto(buf, &m)
			if err != nil || n != len(buf) {
				t.Fatalf("%v: unmarshal consumed %d of %d: %v", src.Kind, n, len(buf), err)
			}
			if err := ParseEventInto(&m, &e); err != nil {
				t.Fatalf("%v: %v", src.Kind, err)
			}
			if e != *src {
				t.Fatalf("%v: round trip mismatch", src.Kind)
			}
		}
		for _, src := range cmds {
			buf = src.AppendMarshal(buf[:0])
			n, err := UnmarshalInto(buf, &m)
			if err != nil || n != len(buf) {
				t.Fatalf("%v: unmarshal consumed %d of %d: %v", src.Kind, n, len(buf), err)
			}
			if err := ParseCommandInto(&m, &c); err != nil {
				t.Fatalf("%v: %v", src.Kind, err)
			}
			if c != *src {
				t.Fatalf("%v: round trip mismatch", src.Kind)
			}
		}
		for i, src := range infos {
			buf = AppendInfo(buf[:0], src, 7, 1)
			n, err := UnmarshalInto(buf, &m)
			if err != nil || n != len(buf) {
				t.Fatalf("info %d: unmarshal consumed %d of %d: %v", i, n, len(buf), err)
			}
			if err := ParseInfoInto(&m, &ci); err != nil {
				t.Fatalf("info %d: %v", i, err)
			}
			if !sameInfo(src, &ci) {
				t.Fatalf("info %d: round trip mismatch:\n in=%+v\nout=%+v", i, src, &ci)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state pooled round trip allocates %.1f/op, want 0", avg)
	}
}

// TestPoolRecycles pins the Get→Put cycle itself at zero steady-state
// allocations and checks the traffic counters move the right way.
func TestPoolRecycles(t *testing.T) {
	p := newPool()
	avg := testing.AllocsPerRun(100, func() {
		b := p.Get()
		b = append(b, 1, 2, 3)
		p.Put(b)
	})
	if avg != 0 {
		t.Fatalf("pooled Get/Put allocates %.1f/op, want 0", avg)
	}
	st := p.Stats()
	if st.Gets < 100 || st.Puts < 100 {
		t.Fatalf("counters did not move: %+v", st)
	}
	if st.News > 1 {
		t.Fatalf("steady state minted %d fresh buffers, want ≤ 1: %+v", st.News, st)
	}
	// Oversized buffers must not be hoarded.
	p.Put(make([]byte, 0, wireBufCap+1))
	if b := p.Get(); cap(b) > wireBufCap {
		t.Fatalf("pool kept an oversized buffer (cap %d)", cap(b))
	}
}
