package tcp

import (
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// TestNewSubflowAllocBudget pins what creating a subflow costs: the
// Subflow. The congestion controller, the estimator and the timers lie in
// the Subflow, their callbacks are package-level functions and their names
// constants, where each used to be an object (30 in all with these
// addresses, most of them the 4-tuple formatted three times over).
func TestNewSubflowAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := sim.New(1)
	tup := seg.FourTuple{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
		SrcPort: 40000, DstPort: 80,
	}
	out := func(*seg.Segment) {}
	owner := &mockOwner{}
	var sf *Subflow
	avg := testing.AllocsPerRun(1000, func() {
		sf = NewSubflow(s, Config{}, tup, out, owner)
	})
	if sf.rtt.RTO() != InitialRTO || sf.rtoTimer.Armed() || sf.reno.Cwnd() != 13800 || !sf.reno.InSlowStart() {
		t.Fatal("fresh subflow's estimator, timer or congestion controller not in its initial state")
	}
	if avg != 1 {
		t.Fatalf("NewSubflow allocates %.0f objects, want 1 (the Subflow)", avg)
	}
	// A connection's re-join reuses the subflow it lost: nothing at all.
	sf = NewSubflow(s, Config{}, tup, out, owner)
	if avg := testing.AllocsPerRun(1000, func() {
		sf.Abort(ECONNABORTED)
		sf.Reuse(s, Config{}, tup, out, owner)
	}); avg != 0 {
		t.Fatalf("Reuse allocates %.0f objects, want 0", avg)
	}
}

// TestSubflowSizeClass pins the Subflow, its Reno and Config inside, to
// its 760 bytes. The runtime puts an 8-byte malloc header on a pointerful
// object this big, so 760 B fills the 768-byte size class exactly; the
// next class is 896 — 128 bytes more on each of the ≈ 15.5 k subflows a
// churn iteration allocates (the other 13.3 k it creates reuse a dead
// one), ≈ +2 MB of its alloc_mb_per_op against a 2 % bound. The pin is the
// exact size, not the class, so a field added to Subflow or its Config is
// noticed before the class is spent.
func TestSubflowSizeClass(t *testing.T) {
	var sf Subflow
	if sz := unsafe.Sizeof(sf); sz > 760 || unsafe.Sizeof(sf.reno) == 0 {
		t.Fatalf("Subflow is %d bytes, over its pinned 760", sz)
	}
}

// lendingOwner hands out every stage's handshake option from one scratch,
// the way mptcp.Connection does.
type lendingOwner struct {
	mockOwner
	scratch [1]seg.Option
	join    seg.MPJoin
}

func (o *lendingOwner) HandshakeOptions(sf *Subflow, st Stage) []seg.Option {
	o.join = seg.MPJoin{Form: seg.JoinForm(st), Nonce: 0xabc0 + uint32(st), AddrID: 3}
	o.scratch[0] = &o.join
	return o.scratch[:]
}

// TestHandshakeRetransmitsRebuildIdentical loses the first SYN, SYN+ACK
// and third ACK. The subflow keeps no copy of what it sent: every
// retransmission is built again from its state and its owner's lent
// options, and must equal the original; and what went out must be the
// segment's own copy of the option, not the owner's scratch.
func TestHandshakeRetransmitsRebuildIdentical(t *testing.T) {
	s := sim.New(4)
	oa, ob := &lendingOwner{}, &lendingOwner{}
	tup := seg.FourTuple{SrcPort: 40000, DstPort: 80}
	var a, b *Subflow
	sent := map[seg.Flags][]*seg.Segment{} // handshake segments by flags, in order
	wire := func(owner *lendingOwner, to **Subflow) Output {
		return func(sg *seg.Segment) {
			if sg.MPJoin() == nil {
				return // not a handshake segment
			}
			if sg.Options[0] == seg.Option(&owner.join) {
				t.Errorf("%v carries the owner's scratch option, not a copy", sg)
			}
			sent[sg.Flags] = append(sent[sg.Flags], sg)
			if len(sent[sg.Flags]) == 1 {
				return // the first of each kind is lost
			}
			c := seg.Shared.Clone(sg)
			s.After(time.Millisecond, "wire", func() { (*to).HandleSegment(c) })
		}
	}
	a = NewSubflow(s, Config{}, tup, wire(oa, &b), oa)
	b = NewSubflow(s, Config{}, tup.Reverse(), wire(ob, &a), ob)
	a.Connect()
	s.Run()
	if oa.established != 1 || ob.established != 1 {
		t.Fatalf("established a=%d b=%d, want 1/1", oa.established, ob.established)
	}
	for _, fl := range []seg.Flags{seg.SYN, seg.SYN | seg.ACK, seg.ACK} {
		got := sent[fl]
		if len(got) < 2 {
			t.Fatalf("%v sent %d times, want a retransmission", fl, len(got))
		}
		for _, again := range got[1:] {
			if !again.Equal(got[0]) {
				t.Fatalf("retransmitted %v\n differs from %v", again, got[0])
			}
		}
	}
	if f := sent[seg.SYN][0].MPJoin().Form; f != seg.JoinSYN {
		t.Fatalf("SYN carries MP_JOIN form %d", f)
	}
	if f := sent[seg.SYN|seg.ACK][0].MPJoin().Form; f != seg.JoinSYNACK {
		t.Fatalf("SYN+ACK carries MP_JOIN form %d", f)
	}
	if f := sent[seg.ACK][0].MPJoin().Form; f != seg.JoinACK {
		t.Fatalf("third ACK carries MP_JOIN form %d", f)
	}
}
