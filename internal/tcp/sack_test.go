package tcp

import (
	"testing"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

// TestSACKRepairsBurstWithoutRTO drops a burst of consecutive segments;
// SACK-based recovery must repair all of them without a retransmission
// timeout (the pre-SACK engine needed one RTO per lost retransmission).
func TestSACKRepairsBurstWithoutRTO(t *testing.T) {
	p := newPair(t, 30, 10*time.Millisecond, Config{MSS: 1000})
	p.a.Connect()
	p.s.Run()
	dropped := 0
	arm := false
	p.dropAtoB = func(s *seg.Segment) bool {
		if arm && s.PayloadLen > 0 && dropped < 8 {
			dropped++
			return true
		}
		return false
	}
	push(p.a, 0, 100_000)
	p.s.RunFor(25 * time.Millisecond) // let some data land first
	arm = true
	p.s.Run()
	if p.ob.newBytes != 100_000 {
		t.Fatalf("receiver got %d", p.ob.newBytes)
	}
	if dropped != 8 {
		t.Fatalf("dropped %d, want 8", dropped)
	}
	st := p.a.Info().Stats
	if st.Timeouts != 0 {
		t.Fatalf("burst needed %d RTOs; SACK recovery broken", st.Timeouts)
	}
	if st.FastRetrans == 0 {
		t.Fatal("no recovery episode recorded")
	}
}

// TestSACKNoSpuriousRetransmits verifies a lossless transfer retransmits
// nothing even with SACK processing active.
func TestSACKNoSpuriousRetransmits(t *testing.T) {
	p := newPair(t, 31, 25*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 2_000_000)
	p.s.Run()
	st := p.a.Info().Stats
	if st.BytesRetrans != 0 || st.FastRetrans != 0 || st.Timeouts != 0 {
		t.Fatalf("spurious recovery on clean path: %+v", st)
	}
}

// TestSACKSingleHalvingPerEpisode: one loss burst must halve the window
// once, not once per SACK-carrying ACK.
func TestSACKSingleHalvingPerEpisode(t *testing.T) {
	p := newPair(t, 32, 10*time.Millisecond, Config{MSS: 1000})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 80_000) // one initial window's worth of growth
	p.s.Run()
	dropN := 0
	p.dropAtoB = func(s *seg.Segment) bool {
		if s.PayloadLen > 0 && dropN < 3 {
			dropN++
			return true
		}
		return false
	}
	push(p.a, 80_000, 80_000)
	p.s.Run()
	if p.ob.newBytes != 160_000 {
		t.Fatalf("got %d", p.ob.newBytes)
	}
	if fr := p.a.Info().Stats.FastRetrans; fr != 1 {
		t.Fatalf("recovery episodes = %d, want 1 (single burst)", fr)
	}
}

// TestSACKOptionOnWire: receiver ACKs carry SACK blocks for buffered
// out-of-order data.
func TestSACKOptionOnWire(t *testing.T) {
	p := newPair(t, 33, 10*time.Millisecond, Config{MSS: 1000})
	p.a.Connect()
	p.s.Run()
	first := true
	p.dropAtoB = func(s *seg.Segment) bool {
		if s.PayloadLen > 0 && first {
			first = false
			return true
		}
		return false
	}
	sawSACK := false
	p.dropBtoA = func(s *seg.Segment) bool {
		if sk := s.SACK(); sk != nil && len(sk.Blocks) > 0 {
			if sk.Blocks[0].Lo >= sk.Blocks[0].Hi {
				t.Fatalf("degenerate SACK block %+v", sk.Blocks[0])
			}
			sawSACK = true
		}
		return false
	}
	push(p.a, 0, 50_000)
	p.s.Run()
	if !sawSACK {
		t.Fatal("no SACK blocks on the wire despite a hole")
	}
}

// TestPacingSpacesTransmissions: with pacing enabled, segments leave with
// gaps ≈ segment/pacing_rate instead of back-to-back bursts.
func TestPacingSpacesTransmissions(t *testing.T) {
	var times []sim.Time
	p := newPair(t, 34, 20*time.Millisecond, Config{MSS: 1000})
	p.dropAtoB = func(s *seg.Segment) bool {
		if s.PayloadLen > 0 {
			times = append(times, p.s.Now())
		}
		return false
	}
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 1_000_000)
	p.s.Run()
	if p.ob.newBytes != 1_000_000 {
		t.Fatalf("got %d", p.ob.newBytes)
	}
	// Beyond the initial window, consecutive sends must not be simultaneous.
	spaced := 0
	for i := 11; i < len(times); i++ {
		if times[i] > times[i-1] {
			spaced++
		}
	}
	if float64(spaced) < 0.8*float64(len(times)-11) {
		t.Fatalf("only %d/%d post-IW sends were paced", spaced, len(times)-11)
	}
}

// TestPeerWindowLimitsSender: a tiny advertised receive window caps the
// flight regardless of cwnd.
func TestPeerWindowLimitsSender(t *testing.T) {
	p := newPair(t, 36, 10*time.Millisecond, Config{MSS: 1000, RcvWnd: 4096})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 100_000)
	if f := p.a.Flight(); f > 4096 {
		t.Fatalf("flight %d exceeds the peer's 4096-byte window", f)
	}
	p.s.Run()
	if p.ob.newBytes != 100_000 {
		t.Fatalf("got %d", p.ob.newBytes)
	}
}

// TestRTOFiresDespiteContinuousSending: the retransmission timer must not
// be pushed forward by ongoing transmissions (RFC 6298 rule 5.1); a head-
// of-line hole whose retransmission is lost must still trigger the RTO.
func TestRTOFiresDespiteContinuousSending(t *testing.T) {
	p := newPair(t, 37, 10*time.Millisecond, Config{MSS: 1000})
	p.a.Connect()
	p.s.Run()
	// Drop the first data segment AND its retransmission; everything else
	// passes. Recovery then requires the RTO path.
	headDrops := 0
	var headSeq uint32
	p.dropAtoB = func(s *seg.Segment) bool {
		if s.PayloadLen == 0 {
			return false
		}
		if headDrops == 0 {
			headSeq = s.Seq
			headDrops++
			return true
		}
		if s.Seq == headSeq && headDrops < 2 {
			headDrops++
			return true
		}
		return false
	}
	push(p.a, 0, 200_000)
	p.s.Run()
	if p.ob.newBytes != 200_000 {
		t.Fatalf("got %d", p.ob.newBytes)
	}
	if p.a.Info().Stats.Timeouts == 0 {
		t.Fatal("lost retransmission was never repaired by RTO")
	}
}

// TestSackedChunksNeverRetransmit: markAllLost after an RTO must skip
// SACKed chunks (they were delivered; resending them wastes the window).
func TestSackedChunksNeverRetransmit(t *testing.T) {
	q := sendQueue{}
	a := pushChunk(&q, 0, true)
	b := pushChunk(&q, 100, true)
	c := pushChunk(&q, 200, true)
	q.applySACK([]sackRange{{lo: 100, hi: 200}}, nil)
	q.markAllLost()
	if b.lost {
		t.Fatal("SACKed chunk marked lost")
	}
	if !a.lost || !c.lost {
		t.Fatal("unSACKed chunks not marked")
	}
	if q.nextToSend() != a {
		t.Fatal("retransmission order wrong")
	}
	q.transmitted(a, 0) // retransmit a
	if q.nextToSend() != c {
		t.Fatal("SACKed chunk offered for retransmission")
	}
}

func TestApplySACKBounds(t *testing.T) {
	q := sendQueue{}
	for i := 0; i < 5; i++ {
		pushChunk(&q, uint32(i*100), i < 4) // last unsent
	}
	high, newly := q.applySACK([]sackRange{{lo: 100, hi: 300}}, nil)
	if len(newly) != 2 {
		t.Fatalf("newly = %d, want chunks 1,2", len(newly))
	}
	if high != 300 {
		t.Fatalf("high = %d", high)
	}
	// Partial coverage does not SACK a chunk.
	_, newly = q.applySACK([]sackRange{{lo: 300, hi: 350}}, nil)
	if len(newly) != 0 {
		t.Fatal("partially covered chunk SACKed")
	}
	// Unsent chunks are never SACKed (data the peer cannot have).
	_, newly = q.applySACK([]sackRange{{lo: 400, hi: 500}}, nil)
	if len(newly) != 0 {
		t.Fatal("unsent chunk SACKed")
	}
}

func TestMarkSACKHolesThreshold(t *testing.T) {
	q := sendQueue{}
	for i := 0; i < 6; i++ {
		pushChunk(&q, uint32(i*100), true)
	}
	q.applySACK([]sackRange{{lo: 500, hi: 600}}, nil)
	// Threshold 200: only chunks ending ≤ 400 qualify (0..3).
	if !q.markSACKHoles(600, 200) {
		t.Fatal("no holes marked")
	}
	marked := 0
	for _, c := range q.all() {
		if c.lost {
			marked++
		}
	}
	if marked != 4 {
		t.Fatalf("marked %d holes, want 4", marked)
	}
	// Re-marking is idempotent and retransmitted chunks are exempt.
	for _, c := range q.all() {
		if c.lost {
			q.transmitted(c, 0)
		}
	}
	if q.markSACKHoles(600, 200) {
		t.Fatal("re-marked retransmitted holes")
	}
}
