package tcp

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

// ackOwner records every chunk OnAckAdvance reports, after first running
// drive: an mptcp.Connection likewise pushes onto its other subflows from
// that callback, while the acked slice it was handed still lives in the
// Shared's scratch.
type ackOwner struct {
	mockOwner
	t      *testing.T
	drive  func()
	acked  []Chunk // copies, in report order
	checks int
}

func (o *ackOwner) OnAckAdvance(sf *Subflow, acked []*Chunk) {
	if o.drive != nil {
		o.drive()
	}
	for _, c := range acked {
		o.acked = append(o.acked, *c)
		o.ackedBytes += c.Len
	}
	checkSendQueue(o.t, o.checks, "ack", &sf.sq)
	o.checks++
}

// TestSharedScratchNotReentered runs two subflows of one Shared against two
// peers. The peers' ACKs are batched, so both senders handle an ACK in the
// same event, and each sender's OnAckAdvance pushes onto the other one
// before it reads its own acked chunks. One data segment of each sender is
// lost, so their ACKs carry SACK blocks and both scratch buffers are used.
// Every chunk must be reported acked exactly once, in sequence order, and
// the send queues' counters must match a full scan at every report.
func TestSharedScratchNotReentered(t *testing.T) {
	const (
		delay   = 5 * time.Millisecond
		chunk   = 1000
		initial = 20 // chunks pushed on each subflow up front
		extra   = 10 // chunks each owner pushes onto the other subflow
	)
	s := sim.New(5)
	tup := func(port uint16) seg.FourTuple {
		return seg.FourTuple{SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
			SrcPort: port, DstPort: 80}
	}
	t1, t2 := tup(40001), tup(40002)
	var a1, a2, b1, b2 *Subflow

	// Sender to peer: one event per segment; the third data segment of
	// each subflow is lost once.
	dataSeen := map[seg.FourTuple]int{}
	forward := func(sg *seg.Segment) {
		to := b1
		if sg.Tuple == t2 {
			to = b2
		}
		if sg.PayloadLen > 0 {
			dataSeen[sg.Tuple]++
			if dataSeen[sg.Tuple] == 3 {
				seg.Shared.Put(sg)
				return
			}
		}
		s.After(delay, "data", func() { to.HandleSegment(sg); seg.Shared.Put(sg) })
	}
	// Peer to sender: everything sent within one delay arrives in one event.
	var backlog []*seg.Segment
	both := 0 // events that delivered to both senders
	flush := func() {
		segs := backlog
		backlog = nil
		var to1, to2 bool
		for _, sg := range segs {
			if sg.Tuple == t1.Reverse() {
				a1.HandleSegment(sg)
				to1 = true
			} else {
				a2.HandleSegment(sg)
				to2 = true
			}
			seg.Shared.Put(sg)
		}
		if to1 && to2 {
			both++
		}
	}
	backward := func(sg *seg.Segment) {
		if len(backlog) == 0 {
			s.After(delay, "acks", flush)
		}
		backlog = append(backlog, sg)
	}

	var sh Shared
	sh.Init(Config{}, forward)
	o1, o2 := &ackOwner{t: t}, &ackOwner{t: t}
	a1, a2 = sh.NewSubflow(s, t1, o1), sh.NewSubflow(s, t2, o2)
	b1 = NewSubflow(s, Config{}, t1.Reverse(), backward, &mockOwner{})
	b2 = NewSubflow(s, Config{}, t2.Reverse(), backward, &mockOwner{})
	a1.Connect()
	a2.Connect()
	s.Run()

	var pushed [2]uint64
	pushOne := func(i int, sf *Subflow) {
		sf.Push(pushed[i], chunk, false)
		pushed[i] += chunk
	}
	drives := [2]int{}
	o1.drive = func() { // a1's ACK drives a2's send
		if drives[1] < extra {
			drives[1]++
			pushOne(1, a2)
		}
	}
	o2.drive = func() {
		if drives[0] < extra {
			drives[0]++
			pushOne(0, a1)
		}
	}
	for k := 0; k < initial; k++ {
		pushOne(0, a1)
		pushOne(1, a2)
	}
	s.Run()

	if both == 0 {
		t.Fatal("no event delivered ACKs to both subflows")
	}
	for i, c := range []struct {
		a, b *Subflow
		o    *ackOwner
	}{{a1, b1, o1}, {a2, b2, o2}} {
		st := c.a.Info().Stats
		if drives[i] != extra || pushed[i] != (initial+extra)*chunk {
			t.Fatalf("subflow %d: pushed %d bytes, %d of them driven by the other's ACKs", i+1, pushed[i], drives[i])
		}
		if st.FastRetrans == 0 {
			t.Fatalf("subflow %d: no SACK recovery, so the SACK scratch was never used", i+1)
		}
		if uint64(c.o.ackedBytes) != pushed[i] || st.BytesAcked != pushed[i] || !c.a.sq.empty() || c.a.Flight() != 0 {
			t.Fatalf("subflow %d: %d bytes reported acked, %d counted, %d pushed; %d chunks queued, flight %d",
				i+1, c.o.ackedBytes, st.BytesAcked, pushed[i], c.a.sq.len(), c.a.Flight())
		}
		next := c.o.acked[0].SubSeq
		for k, ch := range c.o.acked {
			if ch.SubSeq != next || ch.Len != chunk || ch.DataSeq != uint64(k*chunk) {
				t.Fatalf("subflow %d: acked chunk %d is %+v, want subflow seq %d, data seq %d", i+1, k, ch, next, k*chunk)
			}
			next += chunk
		}
		if c.b.rcv.nxt != next {
			t.Fatalf("subflow %d: peer received through %d, sender acked through %d", i+1, c.b.rcv.nxt, next)
		}
	}
}
