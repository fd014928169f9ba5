package tcp

// The scan-everything send-queue accessors and the rebuild-a-slice receive
// queue the subflow ran on before both were made incremental, kept as
// referees. The differential tests below drive the production code and
// the referees with the same seeded random streams.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

func refNextToSend(q *sendQueue) *Chunk {
	for _, c := range q.all() {
		if c.sacked {
			continue
		}
		if !c.sent || c.lost {
			return c
		}
	}
	return nil
}

func refFlight(q *sendQueue) int {
	n := 0
	for _, c := range q.all() {
		if c.sent && !c.lost && !c.sacked {
			n += c.Len
		}
	}
	return n
}

func refUnsentBytes(q *sendQueue) int {
	n := 0
	for _, c := range q.all() {
		if !c.sent {
			n += c.Len
		}
	}
	return n
}

// checkSendQueue asserts the counters against the full scans, and the two
// invariants the counters rest on.
func checkSendQueue(t *testing.T, step int, op string, q *sendQueue) {
	t.Helper()
	if got, want := q.flight(), refFlight(q); got != want {
		t.Fatalf("step %d (%s): flight = %d, scan says %d", step, op, got, want)
	}
	if got, want := q.unsentBytes(), refUnsentBytes(q); got != want {
		t.Fatalf("step %d (%s): unsentBytes = %d, scan says %d", step, op, got, want)
	}
	if got, want := q.nextToSend(), refNextToSend(q); got != want {
		t.Fatalf("step %d (%s): nextToSend = %+v, scan says %+v", step, op, got, want)
	}
	lost, firstUnsent := 0, len(q.all())
	for i, c := range q.all() {
		if c.lost {
			lost++
			if !c.sent || c.sacked {
				t.Fatalf("step %d (%s): chunk %d lost with sent=%v sacked=%v", step, op, i, c.sent, c.sacked)
			}
		}
		if !c.sent && firstUnsent == len(q.all()) {
			firstUnsent = i
		}
		if c.sent && i > firstUnsent {
			t.Fatalf("step %d (%s): sent chunk %d follows unsent chunk %d", step, op, i, firstUnsent)
		}
	}
	if q.nLost != lost {
		t.Fatalf("step %d (%s): nLost = %d, scan says %d", step, op, q.nLost, lost)
	}
	if q.firstUnsent != firstUnsent {
		t.Fatalf("step %d (%s): firstUnsent = %d, scan says %d", step, op, q.firstUnsent, firstUnsent)
	}
}

// sendQueueDriver applies the subflow's transitions to a queue in random
// order: push, (re)transmit, SACK with hole inference, cumulative ack, RTO,
// fast retransmit and teardown.
type sendQueueDriver struct {
	q       sendQueue
	rng     *rand.Rand
	pushNxt uint32
	now     sim.Time
	blocks  []sackRange
}

func (d *sendQueueDriver) step() string {
	q := &d.q
	d.now++
	switch op := d.rng.Intn(100); {
	case op < 30:
		ln := 1 + d.rng.Intn(1460)
		q.push(&Chunk{SubSeq: d.pushNxt, Len: ln})
		d.pushNxt += uint32(ln)
		return "push"
	case op < 60:
		if c := q.nextToSend(); c != nil {
			q.transmitted(c, d.now)
		}
		return "send"
	case op < 72:
		if q.firstUnsent == 0 {
			return "sack (nothing sent)"
		}
		// One or two blocks, each covering a run of whole sent chunks.
		d.blocks = d.blocks[:0]
		for n := 1 + d.rng.Intn(2); n > 0; n-- {
			i := d.rng.Intn(q.firstUnsent)
			j := i + d.rng.Intn(min(4, q.firstUnsent-i))
			last := q.all()[j]
			d.blocks = append(d.blocks, sackRange{lo: q.all()[i].SubSeq, hi: last.SubSeq + uint32(last.Len)})
		}
		high, newly := q.applySACK(d.blocks, nil)
		if len(newly) > 0 {
			q.markSACKHoles(high, 2*1460)
		}
		return "sack"
	case op < 90:
		if q.firstUnsent == 0 {
			return "ack (nothing sent)"
		}
		// Up to the end of a sent chunk, sometimes landing inside it.
		c := q.all()[d.rng.Intn(min(6, q.firstUnsent))]
		ack := c.SubSeq + uint32(c.Len)
		if d.rng.Intn(4) == 0 {
			ack -= uint32(d.rng.Intn(c.Len))
		}
		q.ackThrough(ack, nil)
		return "ack"
	case op < 94:
		q.markAllLost()
		return "rto"
	case op < 99:
		if !q.empty() {
			if front := q.front(); front.sent && !front.sacked {
				q.markLost(front)
				q.transmitted(front, d.now)
			}
		}
		return "fast retransmit"
	default:
		q.clear()
		return "teardown"
	}
}

func TestSendQueueCountersMatchScans(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		// Start just below the wrap so sequence comparisons cross zero.
		d := sendQueueDriver{rng: rand.New(rand.NewSource(seed)), pushNxt: 0xFFFF0000}
		for step := 0; step < 20000; step++ {
			op := d.step()
			checkSendQueue(t, step, op, &d.q)
		}
	}
}

// TestSendQueueSteadyStateAllocFree pins the queue's share of the
// allocation-free data path: once its backing arrays have grown, a window
// of push, send, SACK and cumulative ack allocates nothing.
func TestSendQueueSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	var (
		q       sendQueue
		scratch []*Chunk // the Shared's, which the queue results land in
		next    uint32
		chunks  [16]Chunk
		blocks  = make([]sackRange, 1)
	)
	window := func() {
		base := next
		for i := range chunks {
			chunks[i] = Chunk{SubSeq: next, Len: 100}
			q.push(&chunks[i])
			next += 100
		}
		for c := q.nextToSend(); c != nil; c = q.nextToSend() {
			q.transmitted(c, 0)
		}
		// The receiver holds everything above a hole at chunk 3; the hole
		// is inferred, retransmitted and the window acked.
		blocks[0] = sackRange{lo: base + 400, hi: next}
		high, newly := q.applySACK(blocks, scratch[:0])
		scratch = newly
		q.markSACKHoles(high, 200)
		for c := q.nextToSend(); c != nil; c = q.nextToSend() {
			q.transmitted(c, 0)
		}
		if scratch = q.ackThrough(next, scratch[:0]); len(scratch) != len(chunks) || q.flight() != 0 {
			t.Fatal("window was not fully acknowledged")
		}
	}
	window()
	if avg := testing.AllocsPerRun(500, window); avg != 0 {
		t.Fatalf("send queue steady state allocates %.2f allocs/op, want 0", avg)
	}
}

// refRcvQueue is the receive queue as it was: insertOOO rebuilds the
// interval slice, receive restarts its merge scan after every removal.
type refRcvQueue struct {
	nxt uint32
	ooo []ival
}

func (r *refRcvQueue) receive(seq uint32, n int) bool {
	if n == 0 {
		return false
	}
	end := seq + uint32(n)
	if seqLEQ(end, r.nxt) {
		return false
	}
	isNew := false
	if seqLEQ(seq, r.nxt) {
		r.nxt = end
		isNew = true
	} else {
		isNew = r.insertOOO(seq, end)
	}
	changed := true
	for changed {
		changed = false
		for i, iv := range r.ooo {
			if seqLEQ(iv.lo, r.nxt) {
				if seqLT(r.nxt, iv.hi) {
					r.nxt = iv.hi
				}
				r.ooo = append(r.ooo[:i], r.ooo[i+1:]...)
				changed = true
				break
			}
		}
	}
	return isNew
}

func (r *refRcvQueue) insertOOO(lo, hi uint32) bool {
	for _, iv := range r.ooo {
		if seqLEQ(iv.lo, lo) && seqLEQ(hi, iv.hi) {
			return false
		}
	}
	merged := ival{lo, hi}
	out := r.ooo[:0]
	for _, iv := range r.ooo {
		if seqLT(merged.hi, iv.lo) || seqLT(iv.hi, merged.lo) {
			out = append(out, iv)
			continue
		}
		if seqLT(iv.lo, merged.lo) {
			merged.lo = iv.lo
		}
		if seqLT(merged.hi, iv.hi) {
			merged.hi = iv.hi
		}
	}
	inserted := false
	final := make([]ival, 0, len(out)+1)
	for _, iv := range out {
		if !inserted && seqLT(merged.lo, iv.lo) {
			final = append(final, merged)
			inserted = true
		}
		final = append(final, iv)
	}
	if !inserted {
		final = append(final, merged)
	}
	r.ooo = final
	return true
}

// TestRcvQueueMatchesReference streams random segments — reordered,
// overlapping, duplicated, adjacent — through both receive queues. The
// window slides with nxt, so the stream keeps filling holes and the
// out-of-order set keeps growing and draining.
func TestRcvQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := uint32(0xFFFFF000) // cross the wrap early
		got, ref := rcvQueue{nxt: start}, refRcvQueue{nxt: start}
		maxOOO := 0
		for step := 0; step < 20000; step++ {
			// Segments start on a 100-byte grid inside a 4000-byte window
			// ahead of (and slightly behind) nxt.
			seq := got.nxt - 200 + 100*uint32(rng.Intn(42))
			n := 1 + rng.Intn(300)
			a, b := got.receive(seq, n), ref.receive(seq, n)
			if a != b || got.nxt != ref.nxt || !slices.Equal(got.ooo, ref.ooo) {
				t.Fatalf("seed %d step %d: receive(%#x, %d) = %v nxt %#x ooo %v; reference %v nxt %#x ooo %v",
					seed, step, seq, n, a, got.nxt, got.ooo, b, ref.nxt, ref.ooo)
			}
			maxOOO = max(maxOOO, len(got.ooo))
		}
		if maxOOO < 4 {
			t.Fatalf("seed %d: out-of-order set never exceeded %d intervals; the stream is too tame", seed, maxOOO)
		}
	}
}
