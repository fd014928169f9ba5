package netem

// FlowHash as it was written over hash/fnv — five allocations a packet —
// kept as the referee: the inline hash must return the same value for
// every tuple, or flows would move to other ECMP paths.

import (
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/seg"
)

func refFlowHash(ft seg.FourTuple, seed uint64) uint64 {
	a := addrPort{ft.SrcIP, ft.SrcPort}
	b := addrPort{ft.DstIP, ft.DstPort}
	if b.less(a) {
		a, b = b, a
	}
	h := fnv.New64a()
	var sb [8]byte
	for i := 0; i < 8; i++ {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	for _, ap := range []addrPort{a, b} {
		h.Write(ap.ip.AsSlice())
		h.Write([]byte{byte(ap.port >> 8), byte(ap.port)})
	}
	return h.Sum64()
}

func TestFlowHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v4 := func() netip.Addr {
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	v6 := func() netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	}
	port := func() uint16 { return uint16(rng.Intn(1 << 16)) }
	check := func(what string, ft seg.FourTuple) {
		t.Helper()
		seed := rng.Uint64()
		for _, tu := range []seg.FourTuple{ft, ft.Reverse()} {
			if got, want := FlowHash(tu, seed), refFlowHash(tu, seed); got != want {
				t.Fatalf("%s %v seed %#x: FlowHash = %#x, hash/fnv gives %#x", what, tu, seed, got, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		a4, a6 := v4(), v6()
		check("IPv4", seg.FourTuple{SrcIP: a4, DstIP: v4(), SrcPort: port(), DstPort: port()})
		check("IPv6", seg.FourTuple{SrcIP: a6, DstIP: v6(), SrcPort: port(), DstPort: port()})
		check("zero ports", seg.FourTuple{SrcIP: a4, DstIP: v4()})
		check("same address", seg.FourTuple{SrcIP: a4, DstIP: a4, SrcPort: port(), DstPort: port()})
		check("4-in-6", seg.FourTuple{SrcIP: netip.AddrFrom16(a4.As16()), DstIP: a6, SrcPort: port(), DstPort: port()})
		check("mixed families", seg.FourTuple{SrcIP: a4, DstIP: a6, SrcPort: port(), DstPort: port()})
	}
	check("zero tuple", seg.FourTuple{})
	check("zero address", seg.FourTuple{DstIP: v4(), SrcPort: 1, DstPort: 2})
}
