package nlmsg

import (
	"bytes"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/testutil"
)

// exemplarEvents returns one exemplar of all ten events, covering every
// attribute each kind can carry. Shared by the fuzz seeds and the pooled
// codec equivalence/alloc tests.
func exemplarEvents() []*Event {
	addr := netip.MustParseAddr("192.0.2.9")
	return []*Event{
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
}

// exemplarCommands returns one exemplar of all six commands.
func exemplarCommands() []*Command {
	addr := netip.MustParseAddr("192.0.2.9")
	return []*Command{
		{Kind: CmdSubscribe, Seq: 1, Pid: 5, Mask: MaskOf(EvTimeout, EvSubClosed)},
		{Kind: CmdCreateSubflow, Seq: 2, Token: 99, Tuple: testTuple, Backup: true},
		{Kind: CmdRemoveSubflow, Seq: 3, Token: 99, Tuple: testTuple},
		{Kind: CmdSetBackup, Seq: 4, Token: 99, Tuple: testTuple, Backup: false},
		{Kind: CmdGetInfo, Seq: 5, Token: 99},
		{Kind: CmdAnnounceAddr, Seq: 6, Token: 99, Addr: addr, Port: 80},
	}
}

// exemplarInfos returns get-info replies of every shape: no subflows, one
// IPv4 subflow, a mixed IPv4/IPv6 pair with a backup, a subflow whose
// tuple carries no addresses at all, and six subflows — more top-level
// attributes than Message's inline scratch holds, so decoding it spills.
func exemplarInfos() []*ConnInfo {
	v6 := testTuple
	v6.SrcIP = netip.MustParseAddr("2001:db8::1")
	v6.DstIP = netip.MustParseAddr("2001:db8::2")
	one := SubflowInfo{
		Tuple: testTuple, State: 3, Cwnd: 14800,
		SRTT: 20 * time.Millisecond, RTO: 220 * time.Millisecond,
		PacingRate: 1_000_000, Flight: 2800,
	}
	return []*ConnInfo{
		{Token: 0xabc, SndUna: 1 << 40, AppNxt: 1<<40 + 5000, RcvBytes: 12345, Subflows: []SubflowInfo{one}},
		{Token: 7},
		{Token: 8, SndUna: 9, Subflows: []SubflowInfo{one, {
			Tuple: v6, State: 3, Backup: true, Cwnd: 2760,
			SRTT: 45 * time.Millisecond, RTO: time.Second, Backoffs: 2, PacingRate: 60_000,
		}}},
		{Token: 9, Subflows: []SubflowInfo{{State: 1}}},
		{Token: 10, SndUna: 1 << 20, AppNxt: 1<<20 + 1, RcvBytes: 3, Subflows: []SubflowInfo{
			one, {Tuple: v6, State: 3, Backup: true, Cwnd: 2760},
			{Tuple: testTuple.Reverse(), State: 2, Backoffs: 1, Flight: 1},
			one, {Tuple: v6, State: 1}, {Tuple: testTuple, State: 3, PacingRate: 7},
		}},
	}
}

// fuzzSeeds marshals one exemplar of every message the family speaks —
// all ten events, all six commands, the ack and the info reply — so the
// fuzzer starts from each wire shape the facade now hides from callers.
// One more info reply is sparse, with no connection counters and a
// subflow of its tuple alone: decoding it into a used ConnInfo shows any
// field the in-place parser fails to reset.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, e := range exemplarEvents() {
		seeds = append(seeds, e.Marshal(9, 1))
	}
	for _, c := range exemplarCommands() {
		seeds = append(seeds, c.Marshal())
	}
	seeds = append(seeds, MarshalAck(110, 5, 2))
	for _, info := range exemplarInfos() {
		seeds = append(seeds, MarshalInfo(info, 77, 3))
	}
	sparse := Message{Cmd: ReplyInfo, Seq: 78, Attrs: []Attr{Nested(AttrSubflow, tupleAttrs(testTuple))}}
	return append(seeds, sparse.Marshal())
}

// dirtyMsg and dirtyInfo are what FuzzNlmsgRoundTrip decodes every input
// into in place, kept from one input to the next as a loop's decode
// scratch is.
var (
	dirtyMsg  Message
	dirtyInfo ConnInfo
)

// junkSubflow has every field non-zero: what a reset must clear.
var junkSubflow = SubflowInfo{
	Tuple: testTuple, State: 9, Backup: true, Cwnd: 9, SRTT: 9, RTO: 9,
	Backoffs: 9, PacingRate: 9, Flight: 9,
}

// sameInfo compares a reference decode with an in-place one; an empty
// Subflows equals a nil one.
func sameInfo(want, got *ConnInfo) bool {
	return want.Token == got.Token && want.SndUna == got.SndUna &&
		want.AppNxt == got.AppNxt && want.RcvBytes == got.RcvBytes &&
		slices.Equal(want.Subflows, got.Subflows)
}

// FuzzNlmsgRoundTrip hammers the wire format the facade hides: Unmarshal
// must never panic on arbitrary bytes, every accepted message must
// re-marshal into a message that decodes back identical (idempotent round
// trip), and the typed parsers must stay panic-free with re-encodable
// output.
func FuzzNlmsgRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := Unmarshal(b)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		if n < nlHdrLen+genlHdrLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// Accepted input must survive a marshal/unmarshal cycle exactly:
		// attribute padding is the only thing allowed to normalise away.
		b2 := m.Marshal()
		m2, n2, err := Unmarshal(b2)
		if err != nil {
			t.Fatalf("re-marshalled message rejected: %v", err)
		}
		if n2 != len(b2) {
			t.Fatalf("re-marshal consumed %d of %d bytes", n2, len(b2))
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", m, m2)
		}
		// Typed views: never panic; whatever they accept must re-encode
		// into a parseable message.
		if ev, err := ParseEvent(m); err == nil {
			if _, _, err := Unmarshal(ev.Marshal(m.Seq, m.Pid)); err != nil {
				t.Fatalf("re-encoded event rejected: %v", err)
			}
		}
		if c, err := ParseCommand(m); err == nil {
			if _, _, err := Unmarshal(c.Marshal()); err != nil {
				t.Fatalf("re-encoded command rejected: %v", err)
			}
		}
		info, infoErr := ParseInfo(m)
		if infoErr == nil {
			want := MarshalInfo(info, m.Seq, m.Pid)
			if _, _, err := Unmarshal(want); err != nil {
				t.Fatalf("re-encoded info rejected: %v", err)
			}
			if got := AppendInfo(nil, info, m.Seq, m.Pid); !bytes.Equal(got, want) {
				t.Fatalf("AppendInfo differs from MarshalInfo:\n got %x\nwant %x", got, want)
			}
		}
		_, _ = ParseAck(m)

		// Pooled codec cross-check: UnmarshalInto must accept exactly what
		// Unmarshal accepts, consume the same bytes, and see the same attrs,
		// decoding into a Message that still holds the previous input's
		// attrs and spill.
		mi := &dirtyMsg
		ni, err := UnmarshalInto(b, mi)
		if err != nil {
			t.Fatalf("UnmarshalInto rejected input Unmarshal accepted: %v", err)
		}
		if ni != n {
			t.Fatalf("UnmarshalInto consumed %d bytes, Unmarshal %d", ni, n)
		}
		if mi.Cmd != m.Cmd || mi.Seq != m.Seq || mi.Pid != m.Pid || len(mi.Attrs) != len(m.Attrs) {
			t.Fatalf("UnmarshalInto header/attr-count mismatch:\n in=%+v\nout=%+v", m, mi)
		}
		for i := range mi.Attrs {
			if mi.Attrs[i].Type != m.Attrs[i].Type || !bytes.Equal(mi.Attrs[i].Data, m.Attrs[i].Data) {
				t.Fatalf("attr %d differs: legacy %+v pooled %+v", i, m.Attrs[i], mi.Attrs[i])
			}
		}
		// Typed in-place parsers must agree with the allocating ones, and
		// the append codec must reproduce the legacy bytes. The info
		// parser decodes into a ConnInfo the previous input left dirty,
		// with junk stamped over every field and every spare subflow slot,
		// so a field it fails to reset shows as a mismatch.
		dirtyInfo.Token, dirtyInfo.SndUna, dirtyInfo.AppNxt, dirtyInfo.RcvBytes = 0xdead, 1, 2, 3
		junk := dirtyInfo.Subflows[:cap(dirtyInfo.Subflows)]
		for i := range junk {
			junk[i] = junkSubflow
		}
		infoIntoErr := ParseInfoInto(mi, &dirtyInfo)
		switch {
		case (infoErr == nil) != (infoIntoErr == nil):
			t.Fatalf("ParseInfo err %v, ParseInfoInto err %v", infoErr, infoIntoErr)
		case infoErr == nil && !sameInfo(info, &dirtyInfo):
			t.Fatalf("info mismatch:\nlegacy %+v\npooled %+v", info, &dirtyInfo)
		}
		for len(dirtyInfo.Subflows) < 9 { // leave more subflows than most inputs carry
			dirtyInfo.Subflows = append(dirtyInfo.Subflows, junkSubflow)
		}
		if ev, err := ParseEvent(m); err == nil {
			var e2 Event
			if err := ParseEventInto(mi, &e2); err != nil {
				t.Fatalf("ParseEventInto rejected what ParseEvent accepted: %v", err)
			}
			if e2 != *ev {
				t.Fatalf("event mismatch:\nlegacy %+v\npooled %+v", ev, &e2)
			}
			if got, want := ev.AppendMarshal(nil, m.Seq, m.Pid), ev.Marshal(m.Seq, m.Pid); !bytes.Equal(got, want) {
				t.Fatalf("event AppendMarshal differs from Marshal:\n got %x\nwant %x", got, want)
			}
		}
		if c, err := ParseCommand(m); err == nil {
			var c2 Command
			if err := ParseCommandInto(mi, &c2); err != nil {
				t.Fatalf("ParseCommandInto rejected what ParseCommand accepted: %v", err)
			}
			if c2 != *c {
				t.Fatalf("command mismatch:\nlegacy %+v\npooled %+v", c, &c2)
			}
			if got, want := c.AppendMarshal(nil), c.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("command AppendMarshal differs from Marshal:\n got %x\nwant %x", got, want)
			}
		}
		// Aliasing: events/commands decoded from a pooled buffer must stay
		// intact after the buffer is recycled and scribbled, because they
		// are value types with no views into the wire bytes.
		pb := append(Wire.Get(), b...)
		var mp Message
		if _, err := UnmarshalInto(pb, &mp); err == nil {
			var e1 Event
			var c1 Command
			evOK := ParseEventInto(&mp, &e1) == nil
			cmdOK := ParseCommandInto(&mp, &c1) == nil
			Wire.Put(pb)
			scr := Wire.Get() // most likely the buffer just recycled
			scr = scr[:cap(scr)]
			for i := range scr {
				scr[i] = 0xa5
			}
			// m's attrs were copied out by the legacy Unmarshal above, so
			// they are immune to the scribble: any divergence now means the
			// in-place parse left a view into the recycled buffer.
			if evOK {
				if ev, err := ParseEvent(m); err == nil && e1 != *ev {
					t.Fatalf("event aliased recycled buffer:\npooled %+v\nlegacy %+v", &e1, ev)
				}
			}
			if cmdOK {
				if c, err := ParseCommand(m); err == nil && c1 != *c {
					t.Fatalf("command aliased recycled buffer:\npooled %+v\nlegacy %+v", &c1, c)
				}
			}
			Wire.Put(scr[:0])
		} else {
			Wire.Put(pb)
		}
	})
}

// FuzzUnmarshalAttrs feeds arbitrary bytes to the reference attribute-block
// decoder, the one the reference ParseInfo reads an info reply's
// per-subflow entries with, seeded with the attribute block of every
// message fuzzSeeds marshals.
// What it accepts must re-encode to a block that decodes the same, and
// what it allocates must stay bounded by the input's length.
func FuzzUnmarshalAttrs(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s[nlHdrLen+genlHdrLen:])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		attrs, err := UnmarshalAttrs(b)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; !testutil.RaceEnabled && got > uint64(64*len(b)+64<<10) {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(b), got)
		}
		if err != nil {
			return
		}
		again, err := UnmarshalAttrs(MarshalAttrs(attrs))
		if err != nil {
			t.Fatalf("a decoded block does not decode once re-encoded: %v", err)
		}
		if !reflect.DeepEqual(attrs, again) {
			t.Fatalf("round trip changed the block:\n in=%v\nout=%v", attrs, again)
		}
	})
}
