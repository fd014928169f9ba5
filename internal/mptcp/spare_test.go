package mptcp

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/seg"
	"repro/internal/tcp"
)

// TestConnectionSizeClass pins the Connection, its spare list inside, to
// the 704-byte size class it had before the list: fleet builds thousands
// and heap_live_mb reads them all, so the list had to fit in padding the
// bools left.
func TestConnectionSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Connection{}); sz > 704 {
		t.Fatalf("Connection is %d bytes, over the 704-byte size class", sz)
	}
}

// TestTupleKeyPointerFree pins the endpoint's demux key at 40 bytes or
// less with no pointer in it, field by field, so the tuple table's buckets
// stay small and unscanned; and checks that it tells apart what a 4-tuple
// does: each address, port and direction, and an IPv4 address from its
// IPv4-mapped IPv6 form, which As16 alone would merge.
func TestTupleKeyPointerFree(t *testing.T) {
	var k tupleKey
	if sz := unsafe.Sizeof(k); sz > 40 {
		t.Fatalf("tupleKey is %d bytes, over its pinned 40", sz)
	}
	var scalar func(reflect.Type) bool
	scalar = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return true
		case reflect.Array:
			return scalar(ty.Elem())
		}
		return false
	}
	ty := reflect.TypeOf(k)
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); !scalar(f.Type) {
			t.Errorf("tupleKey.%s is a %v, which is or holds a pointer", f.Name, f.Type)
		}
	}

	v4, v4b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	base := seg.FourTuple{SrcIP: v4, DstIP: v4b, SrcPort: 40000, DstPort: 80}
	if keyOf(base) != keyOf(seg.FourTuple{SrcIP: v4, DstIP: v4b, SrcPort: 40000, DstPort: 80}) {
		t.Fatal("equal tuples give different keys")
	}
	mapped := base
	mapped.SrcIP = netip.AddrFrom16(v4.As16())
	for _, other := range []seg.FourTuple{
		base.Reverse(),
		{SrcIP: v4b, DstIP: v4b, SrcPort: 40000, DstPort: 80},
		{SrcIP: v4, DstIP: v4, SrcPort: 40000, DstPort: 80},
		{SrcIP: v4, DstIP: v4b, SrcPort: 40001, DstPort: 80},
		{SrcIP: v4, DstIP: v4b, SrcPort: 40000, DstPort: 81},
		mapped,
	} {
		if keyOf(other) == keyOf(base) {
			t.Errorf("%v and %v share a key", other, base)
		}
	}
}

// TestScratchHoldsNoRetiredSubflow flaps the second interface under load,
// churn-style: down aborts the subflow on it, up opens a re-join, under
// every built-in scheduler. Whenever the interface comes back, and
// at the end, the connection's pick buffer and the scheduler's candidate
// buffer hold nothing but nil or live subflows across their whole backing
// arrays; a retired subflow lives on the spare list alone, dead and
// unlinked, and the re-joins reuse it.
func TestScratchHoldsNoRetiredSubflow(t *testing.T) {
	for _, sched := range []string{"lowest-rtt", "round-robin", "weighted-rtt", "redundant"} {
		p0, p1 := fastPaths()
		r := newRig(t, 12, p0, p1, Config{Scheduler: sched})
		r.net.Sim.Run()
		c := r.client
		second := r.net.ClientAddrs[1]
		check := func(when string) {
			live := map[*tcp.Subflow]bool{}
			for _, sf := range c.subflows {
				live[sf] = true
			}
			bufs := [][]*tcp.Subflow{c.pickBuf}
			if w, ok := c.sched.(*WeightedRTT); ok {
				bufs = append(bufs, w.buf)
			}
			for _, buf := range bufs {
				for _, sf := range buf[:cap(buf)] {
					if sf != nil && !live[sf] {
						t.Fatalf("%s, %s: scheduler scratch holds retired subflow %v", sched, when, sf)
					}
				}
			}
			for _, s := range c.spares {
				if s.sf != nil && (live[s.sf] || s.sf.State() != tcp.StateDead) {
					t.Fatalf("%s, %s: spare %v is linked or not dead", sched, when, s.sf)
				}
			}
		}
		opened := map[*tcp.Subflow]bool{}
		open := func() {
			sf, err := c.OpenSubflow(second, 0, r.net.ServerAddr, 80, false)
			if err != nil {
				t.Fatal(err)
			}
			opened[sf] = true
		}
		// Up 100 ms, long enough for the 15 ms path's join to carry data;
		// down 20 ms.
		const flaps, period = 20, 120 * time.Millisecond
		open()
		for i := 0; i < flaps; i++ {
			at := time.Duration(i) * period
			r.net.Sim.After(at+100*time.Millisecond, "down", func() {
				r.net.Client.SetIfaceUp(second, false)
				for _, sf := range c.Subflows() {
					if sf.Tuple().SrcIP == second {
						c.CloseSubflow(sf, true)
					}
				}
			})
			r.net.Sim.After(at+period, "up", func() {
				check("before a re-join")
				r.net.Client.SetIfaceUp(second, true)
				open()
			})
		}
		if err := c.Write(8 << 20); err != nil {
			t.Fatal(err)
		}
		r.net.Sim.RunFor(flaps*period + 10*time.Millisecond)
		check("at the end")
		if len(opened) >= flaps {
			t.Fatalf("%s: %d re-joins used %d distinct subflows: spares not reused", sched, flaps+1, len(opened))
		}
	}
}
