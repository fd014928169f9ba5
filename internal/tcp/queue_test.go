package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRcvQueueInOrder(t *testing.T) {
	r := rcvQueue{nxt: 100}
	if !r.receive(100, 50) {
		t.Fatal("in-order data not new")
	}
	if r.nxt != 150 {
		t.Fatalf("nxt = %d, want 150", r.nxt)
	}
	if r.receive(100, 50) {
		t.Fatal("duplicate counted as new")
	}
	if r.nxt != 150 {
		t.Fatalf("nxt moved on duplicate: %d", r.nxt)
	}
}

func TestRcvQueueOutOfOrder(t *testing.T) {
	r := rcvQueue{nxt: 0}
	if !r.receive(100, 50) { // gap
		t.Fatal("ooo data not new")
	}
	if r.nxt != 0 {
		t.Fatalf("nxt advanced over a gap: %d", r.nxt)
	}
	if !r.receive(0, 100) { // fill the gap
		t.Fatal("gap fill not new")
	}
	if r.nxt != 150 {
		t.Fatalf("nxt = %d, want 150 after merge", r.nxt)
	}
	if len(r.ooo) != 0 {
		t.Fatalf("ooo not drained: %v", r.ooo)
	}
}

func TestRcvQueueMergeAdjacent(t *testing.T) {
	r := rcvQueue{nxt: 0}
	r.receive(200, 100)
	r.receive(100, 100) // adjacent, below
	r.receive(400, 50)  // separate island
	if len(r.ooo) != 2 {
		t.Fatalf("ooo = %v, want 2 islands", r.ooo)
	}
	r.receive(0, 100)
	if r.nxt != 300 {
		t.Fatalf("nxt = %d, want 300", r.nxt)
	}
	r.receive(300, 100)
	if r.nxt != 450 {
		t.Fatalf("nxt = %d, want 450", r.nxt)
	}
}

func TestRcvQueueOverlap(t *testing.T) {
	r := rcvQueue{nxt: 0}
	r.receive(50, 100)
	if r.receive(60, 50) { // fully covered
		t.Fatal("covered range reported new")
	}
	if !r.receive(100, 100) { // partial overlap extends
		t.Fatal("extending range not new")
	}
	r.receive(0, 50)
	if r.nxt != 200 {
		t.Fatalf("nxt = %d, want 200", r.nxt)
	}
}

func TestRcvQueueWraparound(t *testing.T) {
	start := uint32(0xFFFFFF00)
	r := rcvQueue{nxt: start}
	r.receive(start, 0x200) // crosses zero
	if r.nxt != 0x100 {
		t.Fatalf("nxt = %#x, want 0x100", r.nxt)
	}
}

// Property: delivering a random permutation of contiguous blocks always
// ends with nxt at the end and no out-of-order residue.
func TestQuickRcvQueuePermutation(t *testing.T) {
	f := func(seed int64, nBlocks uint8) bool {
		n := int(nBlocks%20) + 1
		rng := rand.New(rand.NewSource(seed))
		r := rcvQueue{nxt: 1000}
		order := rng.Perm(n)
		for _, i := range order {
			r.receive(1000+uint32(i*100), 100)
		}
		return r.nxt == 1000+uint32(n*100) && len(r.ooo) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// pushChunk queues a 100-byte chunk at subSeq and, when sent is set,
// transmits it — through the queue's own transitions, so the flags and
// the counters cannot disagree.
func pushChunk(q *sendQueue, subSeq uint32, sent bool) *Chunk {
	c := &Chunk{SubSeq: subSeq, Len: 100}
	q.push(c)
	if sent {
		q.transmitted(c, 0)
	}
	return c
}

func TestSendQueueAckThrough(t *testing.T) {
	q := sendQueue{}
	for i := 0; i < 5; i++ {
		pushChunk(&q, uint32(i*100), true)
	}
	acked := q.ackThrough(250, nil) // covers chunks 0,1 fully; chunk 2 partially
	if len(acked) != 2 {
		t.Fatalf("acked %d chunks, want 2", len(acked))
	}
	if q.len() != 3 {
		t.Fatalf("remaining %d, want 3", q.len())
	}
	acked = q.ackThrough(500, nil)
	if len(acked) != 3 || !q.empty() {
		t.Fatalf("acked %d, remaining %d", len(acked), q.len())
	}
}

// A cumulative ack must not cost O(flight): with 20 k chunks in flight and
// one acked (and one pushed) at a time, the survivors are moved only when
// the acked slots outnumber them, so the moves stay within twice the
// pushes — compacting on every ack would move 20 k per ack — and once the
// backing array has its size the cycle allocates nothing.
func TestAckThroughMovesAmortised(t *testing.T) {
	const flight, rounds = 20000, 4
	q := sendQueue{}
	chunks := make([]Chunk, flight*(1+rounds))
	pushes, acks, moves := 0, 0, 0
	var scratch []*Chunk
	push := func() {
		c := &chunks[pushes]
		c.SubSeq, c.Len = uint32(pushes*100), 100
		q.push(c)
		q.transmitted(c, 0)
		pushes++
	}
	round := func() {
		for i := 0; i < flight; i++ {
			head := q.head
			scratch = q.ackThrough(uint32((acks+1)*100), scratch[:0])
			if len(scratch) != 1 || scratch[0] != &chunks[acks] {
				t.Fatalf("ack %d returned %d chunks", acks, len(scratch))
			}
			if q.head != head+1 { // compacted: every survivor moved once
				moves += q.len()
			}
			acks++
			push()
			if q.len() != flight || q.front() != &chunks[acks] || q.flight() != flight*100 {
				t.Fatalf("after ack %d: len %d, flight %d", acks, q.len(), q.flight())
			}
		}
	}
	for pushes < flight {
		push()
	}
	round() // warm: the array grows to its steady size
	if n := testing.AllocsPerRun(rounds-2, round); n != 0 {
		t.Fatalf("warm ack/push cycle allocates %.0f times a round", n)
	}
	if moves == 0 || moves > 2*pushes {
		t.Fatalf("%d element moves for %d pushes, want within (0, 2x]", moves, pushes)
	}
}

func TestSendQueueFlightAndLost(t *testing.T) {
	q := sendQueue{}
	a := pushChunk(&q, 0, true)
	pushChunk(&q, 100, true)
	c := pushChunk(&q, 200, false)
	if q.flight() != 200 {
		t.Fatalf("flight = %d, want 200", q.flight())
	}
	if q.unsentBytes() != 100 {
		t.Fatalf("unsent = %d, want 100", q.unsentBytes())
	}
	if q.nextToSend() != c {
		t.Fatal("nextToSend should be the unsent chunk")
	}
	q.markAllLost()
	if q.flight() != 0 {
		t.Fatalf("flight after markAllLost = %d", q.flight())
	}
	if q.nextToSend() != a {
		t.Fatal("go-back-N should restart at the front")
	}
}

func TestSeqCompare(t *testing.T) {
	if !seqLT(0xFFFFFFFF, 1) {
		t.Fatal("wraparound compare broken")
	}
	if seqLT(1, 0xFFFFFFFF) {
		t.Fatal("wraparound compare inverted")
	}
	if !seqLEQ(5, 5) || seqLT(5, 5) {
		t.Fatal("equality cases broken")
	}
}
