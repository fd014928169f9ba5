package seg

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// segForAlloc builds a typical data segment (DSS with map + data ack) the
// way the subflow hot path does: pooled shell, scratch DSS.
func segForAlloc() *Segment {
	s := Shared.Get()
	s.Tuple = tuple()
	s.Seq, s.Ack = 1000, 2000
	s.Flags = ACK | PSH
	s.Window = 4 << 20
	s.PayloadLen = 1380
	d := s.ScratchDSS()
	d.HasDataAck, d.DataAck = true, 1<<40
	d.HasMap, d.DataSeq, d.SubflowSeq, d.MapLen = true, 1<<41, 77, 1380
	return s
}

func TestPoolResetClears(t *testing.T) {
	s := segForAlloc()
	sk := s.ScratchSACK()
	sk.Blocks = append(sk.Blocks, SackBlock{Lo: 1, Hi: 2})
	Shared.Put(s)
	g := Shared.Get()
	defer Shared.Put(g)
	// The pool is LIFO, so g is s: it must come out pristine.
	if g.Seq != 0 || g.Ack != 0 || g.Flags != 0 || g.Window != 0 || g.PayloadLen != 0 {
		t.Fatalf("pooled segment not reset: %+v", g)
	}
	if len(g.Options) != 0 {
		t.Fatalf("pooled segment kept %d options", len(g.Options))
	}
	if g.Tuple != (FourTuple{}) {
		t.Fatalf("pooled segment kept tuple %v", g.Tuple)
	}
}

func TestPooledBuildAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	// Warm the pool.
	for i := 0; i < 64; i++ {
		Shared.Put(segForAlloc())
	}
	avg := testing.AllocsPerRun(2000, func() {
		Shared.Put(segForAlloc())
	})
	if avg > 0.05 {
		t.Fatalf("pooled segment build allocates %.2f allocs/op, want ~0", avg)
	}
}

func TestPooledCloneAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	src := segForAlloc()
	defer Shared.Put(src)
	sk := src.ScratchSACK()
	sk.Blocks = append(sk.Blocks, SackBlock{Lo: 10, Hi: 20}, SackBlock{Lo: 30, Hi: 40})
	for i := 0; i < 64; i++ {
		Shared.Put(Shared.Clone(src))
	}
	avg := testing.AllocsPerRun(2000, func() {
		c := Shared.Clone(src)
		if !c.Equal(src) {
			t.Fatal("pooled clone differs from source")
		}
		Shared.Put(c)
	})
	if avg > 0.05 {
		t.Fatalf("pooled clone allocates %.2f allocs/op, want ~0", avg)
	}
}

func TestAppendWireAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := segForAlloc()
	defer Shared.Put(s)
	buf := make([]byte, 0, 4096)
	avg := testing.AllocsPerRun(2000, func() {
		var err error
		buf, err = s.AppendWire(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.05 {
		t.Fatalf("AppendWire into a reused buffer allocates %.2f allocs/op, want 0", avg)
	}
}

func TestUnmarshalIntoAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	src := segForAlloc()
	defer Shared.Put(src)
	sk := src.ScratchSACK()
	sk.Blocks = append(sk.Blocks, SackBlock{Lo: 5, Hi: 9})
	wire, err := src.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := Shared.Get()
	defer Shared.Put(dst)
	// Warm dst's scratch SACK capacity, then measure.
	if err := UnmarshalInto(dst, wire, src.Tuple.SrcIP, src.Tuple.DstIP); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatalf("in-place unmarshal mismatch:\n in=%v\nout=%v", src, dst)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := UnmarshalInto(dst, wire, src.Tuple.SrcIP, src.Tuple.DstIP); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.05 {
		t.Fatalf("UnmarshalInto allocates %.2f allocs/op, want 0", avg)
	}
}

func TestAppendWireMatchesMarshal(t *testing.T) {
	s := segForAlloc()
	defer Shared.Put(s)
	a, err := s.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AppendWire([]byte{0xff, 0xee})
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:2]) != "\xff\xee" {
		t.Fatal("AppendWire clobbered the destination prefix")
	}
	if string(a) != string(b[2:]) {
		t.Fatal("AppendWire wire image depends on the destination prefix")
	}
}

// TestJoinHMACAllocFree pins the stack HMAC: authenticating an MP_JOIN
// costs no heap object (crypto/hmac's New, two digests and Sum cost six).
func TestJoinHMACAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	var full [20]byte
	var trunc uint64
	avg := testing.AllocsPerRun(2000, func() {
		full = JoinHMAC(1, 2, 3, 4)
		trunc = TruncatedJoinHMAC(2, 1, 4, 3)
	})
	if full == [20]byte{} || trunc == 0 {
		t.Fatal("zero HMAC")
	}
	if avg != 0 {
		t.Fatalf("JoinHMAC + TruncatedJoinHMAC allocate %.2f allocs/op, want 0", avg)
	}
}

// TestHandshakeOptionsAllocFree pins the handshake slots: once a segment
// has carried one handshake option, attaching a lent MP_JOIN or
// MP_CAPABLE, cloning the segment and refilling it from the wire all
// reuse its slot, and the copy does not alias what it was copied from.
func TestHandshakeOptionsAllocFree(t *testing.T) {
	join := &MPJoin{Form: JoinACK, FullHMAC: JoinHMAC(1, 2, 3, 4)}
	mpc := &MPCapable{SenderKey: 7, ReceiverKey: 9, HasReceiver: true}
	for _, lent := range [][]Option{{join}, {mpc}} {
		build := func() *Segment {
			s := Shared.Get()
			s.Tuple = tuple()
			s.Flags = ACK
			s.AppendOptions(lent)
			return s
		}
		src := build()
		wire, err := src.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := Shared.Get()
		cycle := func() {
			s := build()
			c := Shared.Clone(s)
			if !c.Equal(src) {
				t.Fatalf("clone %v differs from %v", c, src)
			}
			Shared.Put(s)
			Shared.Put(c)
			if err := UnmarshalInto(dst, wire, src.Tuple.SrcIP, src.Tuple.DstIP); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if !dst.Equal(src) {
			t.Fatalf("in-place unmarshal mismatch:\n in=%v\nout=%v", src, dst)
		}
		if src.Options[0] == lent[0] {
			t.Fatal("AppendOptions kept the lender's option instead of copying it")
		}
		if !testutil.RaceEnabled { // alloc counts differ under -race
			for i := 0; i < 64; i++ {
				cycle() // every pooled segment the cycle can draw gets its slot
			}
			if avg := testing.AllocsPerRun(2000, cycle); avg > 0.05 {
				t.Fatalf("%v: build+clone+unmarshal allocates %.2f allocs/op, want ~0", lent[0], avg)
			}
		}
		Shared.Put(src)
		Shared.Put(dst)
	}
	// A second option of a kind whose slot is taken is cloned to the heap,
	// not dropped and not aliased.
	s := Shared.Get()
	defer Shared.Put(s)
	other := &MPJoin{Form: JoinSYN, Token: 5, Nonce: 6}
	s.AppendOptions([]Option{join, other})
	if len(s.Options) != 2 || !optionEqual(s.Options[1], other) || s.Options[1] == Option(other) {
		t.Fatalf("second MP_JOIN not deep-copied: %v", s.Options)
	}
}

// TestCrossShardPutIsReset holds rule 5 of DESIGN.md "Segment ownership"
// across event loops: a segment put on one shard's list, handed to the
// store when that shard's run is flushed, and got on another shard's list
// comes out fully Reset.
func TestCrossShardPutIsReset(t *testing.T) {
	w := sim.NewWorld(1, 2)
	a, b := sim.Lists(w.HostClock(0, "a")), sim.Lists(w.HostClock(1, "b"))
	if a == b {
		t.Fatal("the two hosts share a loop")
	}
	s := segForAlloc()
	sk := s.ScratchSACK()
	sk.Blocks = append(sk.Blocks, SackBlock{Lo: 1, Hi: 2})
	Shared.On(a).Put(s)
	w.Flush()
	g := Shared.On(b).Get()
	defer Shared.On(b).Put(g)
	if g != s {
		t.Fatal("the segment put on shard 0 did not reach shard 1's list")
	}
	if g.Seq != 0 || g.Ack != 0 || g.Flags != 0 || g.Window != 0 || g.PayloadLen != 0 || g.claimed != 0 {
		t.Fatalf("segment not reset: %+v", g)
	}
	if len(g.Options) != 0 || g.dss != (DSS{}) || len(g.sack.Blocks) != 0 {
		t.Fatalf("segment kept options: %d attached, DSS %+v, %d SACK blocks", len(g.Options), g.dss, len(g.sack.Blocks))
	}
	if g.Tuple != (FourTuple{}) {
		t.Fatalf("segment kept tuple %v", g.Tuple)
	}
}
