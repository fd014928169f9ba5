package tcp

import (
	"slices"
	"sort"

	"repro/internal/freelist"
	"repro/internal/sim"
)

// Sequence-space arithmetic (RFC 793 modular comparisons).

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// Chunk is one scheduled unit of payload in the subflow's send queue. It
// carries its Multipath TCP data-sequence mapping so the owning connection
// can reinject the same data on another subflow when this one times out.
type Chunk struct {
	SubSeq  uint32 // subflow sequence number of the first byte
	Len     int
	DataSeq uint64 // connection-level data sequence of the first byte
	DataFIN bool   // the mapping carries the connection-level FIN

	sent    bool
	lost    bool // marked for retransmission (RTO, dupacks or SACK holes)
	sacked  bool // selectively acknowledged (delivered, awaiting cumack)
	rexmits int
	sentAt  sim.Time
}

// chunkPool is the process store of chunks behind every loop's list, so
// the scheduling hot path (one chunk per MSS of payload) does not
// allocate in steady state.
var chunkPool = freelist.List[*Chunk]{
	New: func() *Chunk { return new(Chunk) },
	Max: 1 << 14,
}

// ChunkPoolStats snapshots the store's counters, which take in each
// loop's as its list is flushed.
func ChunkPoolStats() freelist.Stats {
	return chunkPool.Stats()
}

// ChunkLoopStats snapshots the counters of the loop's chunk list.
func ChunkLoopStats(lp *freelist.Loop) freelist.Stats {
	return chunkPool.On(lp).Stats()
}

// newChunk draws a chunk from the loop's list, fully reinitialised.
func newChunk(l *freelist.Local[*Chunk], subSeq uint32, ln int, dataSeq uint64, dataFIN bool) *Chunk {
	c := l.Get()
	*c = Chunk{SubSeq: subSeq, Len: ln, DataSeq: dataSeq, DataFIN: dataFIN}
	return c
}

// putChunks retires chunks whose lifecycle ended — cumulatively acked, or
// still queued on a subflow that died (after the owner reinjected them) —
// to the loop's list. Callers must not touch the chunks afterwards.
func putChunks(l *freelist.Local[*Chunk], cs []*Chunk) {
	for _, c := range cs {
		*c = Chunk{}
		l.Put(c)
	}
}

// sendQueue is the subflow's ordered list of chunks between sndUna and the
// tail of scheduled data. It doubles as the retransmission queue: acked
// chunks are popped from the front.
//
// A chunk is unsent, or sent and then at most one of lost (marked for
// retransmission) or sacked. Chunks are sent in queue order, so the
// unsent ones always form a suffix starting at firstUnsent. The queue
// keeps the sums the sender asks for on every ACK and scheduler pick —
// bytes in flight, bytes unsent, lost chunks — as counters moved at each
// transition, which is why the chunk flags are written only by the
// methods below.
type sendQueue struct {
	buf  []*Chunk // the queue is buf[head:]
	head int      // acked slots at the front of buf, all nil

	inFlight    int // bytes sent, not lost, not sacked (the RFC 6675 "pipe")
	unsent      int // bytes never transmitted
	nLost       int // chunks marked lost
	firstUnsent int // index in all() of the first unsent chunk; len() if none
}

// push appends a never-sent chunk.
func (q *sendQueue) push(c *Chunk) {
	q.buf = append(q.buf, c)
	q.unsent += c.Len
}
func (q *sendQueue) empty() bool   { return len(q.buf) == q.head }
func (q *sendQueue) len() int      { return len(q.buf) - q.head }
func (q *sendQueue) all() []*Chunk { return q.buf[q.head:] }
func (q *sendQueue) front() *Chunk { return q.buf[q.head] }

// ackThrough removes chunks fully covered by the cumulative ack and returns
// them (for RTT sampling and data-level bookkeeping), appended to into: the
// caller's scratch, emptied (Shared says why the subflows of one endpoint
// can share it). The queue steps over the acked slots and moves the
// survivors back to the front of the backing array only once the acked
// slots outnumber them: an ack costs amortised O(1) however long the
// flight, and the push/ack steady state never erodes capacity and never
// reallocates — the send queue's share of the 0 allocs/op data path.
func (q *sendQueue) ackThrough(ack uint32, into []*Chunk) []*Chunk {
	chunks := q.all()
	i := 0
	for i < q.firstUnsent { // only sent data can be acknowledged
		c := chunks[i]
		if !seqLEQ(c.SubSeq+uint32(c.Len), ack) {
			break
		}
		switch {
		case c.lost:
			q.nLost--
		case !c.sacked:
			q.inFlight -= c.Len
		}
		i++
	}
	if i == 0 {
		return into
	}
	q.firstUnsent -= i
	acked := append(into, chunks[:i]...)
	clear(chunks[:i]) // drop references to chunks headed for the pool
	q.head += i
	if live := len(q.buf) - q.head; q.head > live {
		copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:]) // the slots the survivors left
		q.buf, q.head = q.buf[:live], 0
	}
	return acked
}

// clear empties the queue (subflow teardown) and returns the chunks it
// held, for recycling. The backing arrays stay for a reused subflow, whose
// reset clears them.
func (q *sendQueue) clear() []*Chunk {
	cs := q.all()
	*q = sendQueue{buf: q.buf[:0]}
	return cs
}

// nextToSend returns the first chunk needing (re)transmission: lost chunks
// first (they hold the lowest sequence numbers), then never-sent chunks.
// SACKed chunks never retransmit. Only while a chunk is marked lost does
// it scan, and then only the sent prefix.
func (q *sendQueue) nextToSend() *Chunk {
	chunks := q.all()
	if q.nLost > 0 {
		for _, c := range chunks[:q.firstUnsent] {
			if c.lost {
				return c
			}
		}
	}
	if q.firstUnsent < len(chunks) {
		return chunks[q.firstUnsent]
	}
	return nil
}

// flight reports the bytes of chunks sent, unacked, not SACKed and not
// marked lost (the RFC 6675 "pipe" estimate).
func (q *sendQueue) flight() int { return q.inFlight }

// unsentBytes reports bytes never transmitted.
func (q *sendQueue) unsentBytes() int { return q.unsent }

// transmitted records that c is going onto the wire at now — the first
// transmission of the next unsent chunk, or the retransmission of a sent
// one, which clears its lost mark — and reports whether it was a
// retransmission.
func (q *sendQueue) transmitted(c *Chunk, now sim.Time) (retrans bool) {
	retrans = c.sent
	if retrans {
		c.rexmits++
		if c.lost {
			c.lost = false
			q.nLost--
			q.inFlight += c.Len
		}
	} else {
		if q.all()[q.firstUnsent] != c {
			panic("tcp: first transmission out of queue order")
		}
		c.sent = true
		q.firstUnsent++
		q.unsent -= c.Len
		q.inFlight += c.Len
	}
	c.sentAt = now
	return retrans
}

// markLost flags a sent, un-SACKed chunk for retransmission and reports
// whether the mark is new.
func (q *sendQueue) markLost(c *Chunk) bool {
	if !c.sent || c.sacked || c.lost {
		return false
	}
	c.lost = true
	q.nLost++
	q.inFlight -= c.Len
	return true
}

// markAllLost flags every sent, un-SACKed chunk for retransmission (after
// an RTO).
func (q *sendQueue) markAllLost() {
	for _, c := range q.all()[:q.firstUnsent] {
		q.markLost(c)
	}
}

// applySACK marks chunks covered by the blocks as delivered. It returns the
// highest sequence number newly SACKed and the newly SACKed chunks (for RTT
// sampling), appended to into, the scratch ackThrough also uses.
func (q *sendQueue) applySACK(blocks []sackRange, into []*Chunk) (high uint32, newly []*Chunk) {
	newly = into
	for _, c := range q.all()[:q.firstUnsent] {
		if c.sacked {
			continue
		}
		end := c.SubSeq + uint32(c.Len)
		for _, b := range blocks {
			if seqLEQ(b.lo, c.SubSeq) && seqLEQ(end, b.hi) {
				c.sacked = true
				if c.lost {
					c.lost = false
					q.nLost--
				} else {
					q.inFlight -= c.Len
				}
				newly = append(newly, c)
				if seqLT(high, end) {
					high = end
				}
				break
			}
		}
	}
	return high, newly
}

// markSACKHoles implements the RFC 6675 loss inference: a sent, un-SACKed
// chunk whose end lags the highest SACKed sequence by at least dupThresh
// segments is deemed lost. A chunk is inferred lost at most once per
// transmission (rexmits guards re-marking a hole whose retransmission is
// still in flight — without it every ACK would re-mark every hole and the
// sender would melt down in spurious retransmissions; losses OF
// retransmissions are left to the RTO, as in pre-RACK Linux). It reports
// whether any chunk was newly marked.
func (q *sendQueue) markSACKHoles(highSacked uint32, threshBytes int) bool {
	marked := false
	for _, c := range q.all()[:q.firstUnsent] {
		if c.rexmits > 0 {
			continue
		}
		if seqLEQ(c.SubSeq+uint32(c.Len)+uint32(threshBytes), highSacked) && q.markLost(c) {
			marked = true
		}
	}
	return marked
}

// sackRange is a half-open SACK interval in subflow sequence space.
type sackRange struct{ lo, hi uint32 }

// rcvQueue tracks the receive side of a subflow: the next expected in-order
// sequence number and the set of out-of-order intervals already received,
// so cumulative ACKs (and therefore duplicate ACKs) are generated exactly
// like a real TCP receiver.
type rcvQueue struct {
	nxt uint32 // next expected sequence number
	ooo []ival // disjoint, sorted out-of-order intervals above nxt
}

type ival struct{ lo, hi uint32 } // [lo, hi)

// receive folds [seq, seq+n) into the receive state and reports whether any
// byte of it was new.
func (r *rcvQueue) receive(seq uint32, n int) bool {
	if n == 0 {
		return false
	}
	end := seq + uint32(n)
	if seqLEQ(end, r.nxt) {
		return false // entirely duplicate
	}
	isNew := false
	if seqLEQ(seq, r.nxt) {
		// Extends the in-order prefix.
		r.nxt = end
		isNew = true
	} else {
		isNew = r.insertOOO(seq, end)
	}
	// Merge the out-of-order intervals now contiguous with nxt; they sit
	// at the sorted front.
	merged := 0
	for _, iv := range r.ooo {
		if !seqLEQ(iv.lo, r.nxt) {
			break
		}
		if seqLT(r.nxt, iv.hi) {
			r.nxt = iv.hi
		}
		merged++
	}
	if merged > 0 {
		r.ooo = slices.Delete(r.ooo, 0, merged)
	}
	return isNew
}

// sackBlocks returns up to max out-of-order intervals for the receiver's
// SACK option.
func (r *rcvQueue) sackBlocks(max int) []ival {
	if len(r.ooo) <= max {
		return r.ooo
	}
	return r.ooo[:max]
}

// insertOOO adds [lo,hi) to the out-of-order set, merging overlapping and
// adjacent intervals, and reports whether any byte was new. It works in
// place: the affected run is found by binary search and the tail shifted
// within the backing array, so a warm receiver does not allocate per
// reordered segment.
func (r *rcvQueue) insertOOO(lo, hi uint32) bool {
	// ooo[i:j] are the intervals that overlap or touch [lo,hi): i is the
	// first whose end reaches lo (ends are sorted, as the intervals are
	// sorted and disjoint).
	i := sort.Search(len(r.ooo), func(m int) bool { return !seqLT(r.ooo[m].hi, lo) })
	j := i
	for j < len(r.ooo) && seqLEQ(r.ooo[j].lo, hi) {
		j++
	}
	if i == j {
		r.ooo = slices.Insert(r.ooo, i, ival{lo, hi})
		return true
	}
	if seqLEQ(r.ooo[i].lo, lo) && seqLEQ(hi, r.ooo[i].hi) {
		return false // fully covered already
	}
	if seqLT(r.ooo[i].lo, lo) {
		lo = r.ooo[i].lo
	}
	if seqLT(hi, r.ooo[j-1].hi) {
		hi = r.ooo[j-1].hi
	}
	r.ooo[i] = ival{lo, hi}
	r.ooo = slices.Delete(r.ooo, i+1, j)
	return true
}
