package seg

import (
	"testing"

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
	// g may or may not be the same object (sync.Pool), but any pooled
	// segment must come out pristine.
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
