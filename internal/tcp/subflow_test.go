package tcp

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

// mockOwner records every Owner callback.
type mockOwner struct {
	established int
	newBytes    int
	ackedBytes  int
	timeouts    []time.Duration
	backoffs    []int
	closed      bool
	closeReason Errno
	reject      map[Stage]bool
	dataAck     uint64
	hasDataAck  bool
	onTimeout   func(sf *Subflow, rto time.Duration, n int)
}

func (o *mockOwner) HandshakeOptions(sf *Subflow, st Stage) []seg.Option { return nil }
func (o *mockOwner) HandshakeAccept(sf *Subflow, s *seg.Segment, st Stage) Verdict {
	if o.reject[st] {
		return Reject
	}
	return Accept
}
func (o *mockOwner) OnEstablished(sf *Subflow) { o.established++ }
func (o *mockOwner) OnSegment(sf *Subflow, s *seg.Segment, hasNew bool) {
	if hasNew {
		o.newBytes += s.PayloadLen
	}
}
func (o *mockOwner) CurrentDataAck() (uint64, bool) { return o.dataAck, o.hasDataAck }
func (o *mockOwner) OnAckAdvance(sf *Subflow, acked []*Chunk) {
	for _, c := range acked {
		o.ackedBytes += c.Len
	}
}
func (o *mockOwner) OnTimeout(sf *Subflow, rto time.Duration, n int) {
	o.timeouts = append(o.timeouts, rto)
	o.backoffs = append(o.backoffs, n)
	if o.onTimeout != nil {
		o.onTimeout(sf, rto, n)
	}
}
func (o *mockOwner) OnClosed(sf *Subflow, reason Errno) {
	o.closed = true
	o.closeReason = reason
}

// pair wires two subflows through a fixed-delay lossy pipe.
type pair struct {
	s        *sim.Simulator
	a, b     *Subflow
	oa, ob   *mockOwner
	delay    time.Duration
	dropAtoB func(*seg.Segment) bool
	dropBtoA func(*seg.Segment) bool
}

func newPair(t *testing.T, seed int64, delay time.Duration, cfg Config) *pair {
	t.Helper()
	p := &pair{s: sim.New(seed), delay: delay, oa: &mockOwner{}, ob: &mockOwner{}}
	tup := seg.FourTuple{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
		SrcPort: 40000, DstPort: 80,
	}
	p.a = NewSubflow(p.s, cfg, tup, func(sg *seg.Segment) {
		if p.dropAtoB != nil && p.dropAtoB(sg) {
			return
		}
		c := seg.Shared.Clone(sg)
		p.s.After(p.delay, "wire->b", func() { p.b.HandleSegment(c) })
	}, p.oa)
	p.b = NewSubflow(p.s, cfg, tup.Reverse(), func(sg *seg.Segment) {
		if p.dropBtoA != nil && p.dropBtoA(sg) {
			return
		}
		c := seg.Shared.Clone(sg)
		p.s.After(p.delay, "wire->a", func() { p.a.HandleSegment(c) })
	}, p.ob)
	return p
}

func TestHandshake(t *testing.T) {
	p := newPair(t, 1, 10*time.Millisecond, Config{})
	p.a.Connect()
	if p.a.SynSentAt() != 0 {
		t.Fatalf("SynSentAt = %v", p.a.SynSentAt())
	}
	p.s.Run()
	if p.oa.established != 1 || p.ob.established != 1 {
		t.Fatalf("established a=%d b=%d, want 1/1", p.oa.established, p.ob.established)
	}
	if p.a.State() != StateEstablished || p.b.State() != StateEstablished {
		t.Fatalf("states %v/%v", p.a.State(), p.b.State())
	}
	// Client establishes after one RTT (20 ms); server after 1.5 RTT.
	if p.a.EstablishedAt() != 20*sim.Millisecond {
		t.Fatalf("client established at %v, want 20ms", p.a.EstablishedAt())
	}
	if p.b.EstablishedAt() != 30*sim.Millisecond {
		t.Fatalf("server established at %v, want 30ms", p.b.EstablishedAt())
	}
}

func TestHandshakeSynLoss(t *testing.T) {
	p := newPair(t, 2, 10*time.Millisecond, Config{})
	dropped := false
	p.dropAtoB = func(s *seg.Segment) bool {
		if s.Is(seg.SYN) && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.a.Connect()
	p.s.Run()
	if p.oa.established != 1 || p.ob.established != 1 {
		t.Fatal("handshake did not recover from SYN loss")
	}
	// SYN retransmitted after InitialRTO: established ≈ 1s + RTT.
	if p.a.EstablishedAt() < sim.Second || p.a.EstablishedAt() > sim.Second+100*sim.Millisecond {
		t.Fatalf("established at %v, want ≈1.02s", p.a.EstablishedAt())
	}
}

func TestHandshakeRefusedByOwner(t *testing.T) {
	p := newPair(t, 3, time.Millisecond, Config{})
	p.ob.reject = map[Stage]bool{StageSYN: true}
	p.a.Connect()
	p.s.Run()
	if !p.oa.closed || p.oa.closeReason != ECONNREFUSED {
		t.Fatalf("client close = %v/%v, want refused", p.oa.closed, p.oa.closeReason)
	}
	if p.oa.established != 0 {
		t.Fatal("refused handshake established")
	}
}

func TestHandshakeSynRetriesExhausted(t *testing.T) {
	p := newPair(t, 4, time.Millisecond, Config{SynRetries: 3})
	p.dropAtoB = func(s *seg.Segment) bool { return true }
	p.a.Connect()
	p.s.Run()
	if !p.oa.closed || p.oa.closeReason != ETIMEDOUT {
		t.Fatalf("reason = %v, want ETIMEDOUT", p.oa.closeReason)
	}
	// 3 retries: 1s + 2s + 4s then death at +8s ≈ 15s total.
	if p.s.Now() < 14*sim.Second || p.s.Now() > 16*sim.Second {
		t.Fatalf("death at %v, want ≈15s", p.s.Now())
	}
}

// push sends n bytes in MSS-sized chunks starting at dataSeq.
func push(sf *Subflow, dataSeq uint64, n int) uint64 {
	for n > 0 {
		l := sf.MSS()
		if n < l {
			l = n
		}
		sf.Push(dataSeq, l, false)
		dataSeq += uint64(l)
		n -= l
	}
	return dataSeq
}

func TestBulkTransfer(t *testing.T) {
	p := newPair(t, 5, 10*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	const total = 200_000
	push(p.a, 0, total)
	p.s.Run()
	if p.ob.newBytes != total {
		t.Fatalf("receiver got %d bytes, want %d", p.ob.newBytes, total)
	}
	if p.oa.ackedBytes != total {
		t.Fatalf("sender saw %d acked, want %d", p.oa.ackedBytes, total)
	}
	if p.a.Flight() != 0 || p.a.QueuedUnsent() != 0 {
		t.Fatal("sender queues not drained")
	}
	// RTT estimate should be ≈ 20 ms.
	if srtt := p.a.SRTT(); srtt < 19*time.Millisecond || srtt > 30*time.Millisecond {
		t.Fatalf("srtt = %v, want ≈20ms", srtt)
	}
	if p.a.Info().Stats.Timeouts != 0 {
		t.Fatal("lossless transfer hit RTO")
	}
}

func TestCwndLimitsFlight(t *testing.T) {
	p := newPair(t, 6, 50*time.Millisecond, Config{InitialWindow: 2, MSS: 1000})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 50_000)
	// Immediately after pushing, flight must respect the 2-segment window.
	if f := p.a.Flight(); f > 2000 {
		t.Fatalf("flight = %d exceeds initial cwnd", f)
	}
	p.s.Run()
	if p.ob.newBytes != 50_000 {
		t.Fatalf("got %d", p.ob.newBytes)
	}
}

func TestFastRetransmit(t *testing.T) {
	p := newPair(t, 7, 10*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	// Drop exactly one data segment, early in the stream.
	droppedSeq := uint32(0)
	p.dropAtoB = func(s *seg.Segment) bool {
		if s.PayloadLen > 0 && droppedSeq == 0 && s.Seq != 0 {
			droppedSeq = s.Seq
			return true
		}
		return false
	}
	push(p.a, 0, 100_000)
	p.s.Run()
	if p.ob.newBytes != 100_000 {
		t.Fatalf("receiver got %d, want all data", p.ob.newBytes)
	}
	st := p.a.Info().Stats
	if st.FastRetrans == 0 {
		t.Fatal("loss was not repaired by fast retransmit")
	}
	if st.Timeouts != 0 {
		t.Fatalf("single loss needed %d RTOs; dupack path broken", st.Timeouts)
	}
}

func TestRTOAndBackoffDoubling(t *testing.T) {
	p := newPair(t, 8, 10*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	// Black-hole the forward path after the handshake.
	blackhole := true
	p.dropAtoB = func(s *seg.Segment) bool { return blackhole }
	push(p.a, 0, 5000)
	p.s.RunFor(10 * time.Second)
	if len(p.oa.timeouts) < 3 {
		t.Fatalf("only %d timeout events in 10s", len(p.oa.timeouts))
	}
	// Each successive timeout reports a (weakly) doubled RTO.
	for i := 1; i < len(p.oa.timeouts); i++ {
		if p.oa.timeouts[i] < p.oa.timeouts[i-1] {
			t.Fatalf("RTO not monotonic under backoff: %v", p.oa.timeouts)
		}
	}
	if p.oa.backoffs[0] != 1 || p.oa.backoffs[1] != 2 {
		t.Fatalf("backoff counts = %v", p.oa.backoffs)
	}
	// Heal the path: transfer completes and backoff resets.
	blackhole = false
	p.s.Run()
	if p.ob.newBytes != 5000 {
		t.Fatalf("got %d after heal", p.ob.newBytes)
	}
	if p.a.Backoffs() != 0 {
		t.Fatalf("backoffs = %d after progress, want 0", p.a.Backoffs())
	}
}

func TestSubflowDeathAfterMaxBackoffs(t *testing.T) {
	p := newPair(t, 9, 10*time.Millisecond, Config{MaxBackoffs: 4})
	p.a.Connect()
	p.s.Run()
	p.dropAtoB = func(s *seg.Segment) bool { return true }
	push(p.a, 0, 2000)
	p.s.Run()
	if !p.oa.closed || p.oa.closeReason != ETIMEDOUT {
		t.Fatalf("closed=%v reason=%v, want ETIMEDOUT", p.oa.closed, p.oa.closeReason)
	}
	if got := len(p.oa.timeouts); got != 5 {
		t.Fatalf("timeout events = %d, want MaxBackoffs+1", got)
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(t, 10, 5*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	p.a.Abort(ECONNABORTED)
	p.s.Run()
	if p.oa.closeReason != ECONNABORTED {
		t.Fatalf("local reason = %v", p.oa.closeReason)
	}
	if !p.ob.closed || p.ob.closeReason != ECONNRESET {
		t.Fatalf("peer reason = %v, want ECONNRESET", p.ob.closeReason)
	}
}

func TestGracefulClose(t *testing.T) {
	p := newPair(t, 11, 5*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 10_000)
	p.a.Close()
	p.s.Run()
	if p.ob.newBytes != 10_000 {
		t.Fatal("data lost across close")
	}
	// Peer closes too once it has seen the FIN.
	p.b.Close()
	p.s.Run()
	if !p.oa.closed || p.oa.closeReason != Ok {
		t.Fatalf("a close reason = %v/%v", p.oa.closed, p.oa.closeReason)
	}
	if !p.ob.closed || p.ob.closeReason != Ok {
		t.Fatalf("b close reason = %v/%v", p.ob.closed, p.ob.closeReason)
	}
}

func TestCloseDrainsQueueFirst(t *testing.T) {
	p := newPair(t, 12, 5*time.Millisecond, Config{InitialWindow: 2, MSS: 1000})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 20_000) // much more than the initial window
	p.a.Close()
	p.s.Run()
	if p.ob.newBytes != 20_000 {
		t.Fatalf("close truncated the stream: %d", p.ob.newBytes)
	}
}

func TestTimeoutEventExposesCurrentRTO(t *testing.T) {
	// The §4.2 controller keys off the reported RTO value crossing a
	// threshold; verify reported values grow past 1s under sustained loss.
	p := newPair(t, 13, 10*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	p.dropAtoB = func(s *seg.Segment) bool { return true }
	push(p.a, 0, 3000)
	var crossed sim.Time
	p.oa.onTimeout = func(sf *Subflow, rto time.Duration, n int) {
		if rto > time.Second && crossed == 0 {
			crossed = p.s.Now()
		}
	}
	p.s.RunFor(20 * time.Second)
	if crossed == 0 {
		t.Fatal("RTO never crossed 1s under black-hole loss")
	}
	if crossed > 5*sim.Second {
		t.Fatalf("RTO crossed 1s only at %v; backoff too slow", crossed)
	}
}

func TestDataAckCarriedOnSegments(t *testing.T) {
	p := newPair(t, 14, 5*time.Millisecond, Config{})
	p.ob.hasDataAck = true
	p.ob.dataAck = 777
	p.a.Connect()
	p.s.Run()
	var sawDataAck bool
	p.dropBtoA = func(s *seg.Segment) bool {
		if d := s.DSS(); d != nil && d.HasDataAck && d.DataAck == 777 {
			sawDataAck = true
		}
		return false
	}
	push(p.a, 0, 5000)
	p.s.Run()
	if !sawDataAck {
		t.Fatal("receiver ACKs never carried the owner's DATA_ACK")
	}
}

func TestDSSMappingOnWire(t *testing.T) {
	p := newPair(t, 15, 5*time.Millisecond, Config{MSS: 1000})
	p.a.Connect()
	p.s.Run()
	maps := map[uint64]uint16{}
	p.dropAtoB = func(s *seg.Segment) bool {
		if d := s.DSS(); d != nil && d.HasMap {
			maps[d.DataSeq] = d.MapLen
		}
		return false
	}
	push(p.a, 5000, 2500)
	p.s.Run()
	if maps[5000] != 1000 || maps[6000] != 1000 || maps[7000] != 500 {
		t.Fatalf("DSS mappings = %v", maps)
	}
}

func TestPacingRateTracksThroughput(t *testing.T) {
	p := newPair(t, 16, 20*time.Millisecond, Config{MSS: 1000})
	if p.a.PacingRate() != 0 {
		t.Fatal("pacing rate nonzero before any RTT sample")
	}
	p.a.Connect()
	p.s.Run()
	// The SYN/SYN+ACK exchange provides the first RTT sample (≈40 ms).
	if srtt := p.a.SRTT(); srtt < 39*time.Millisecond || srtt > 45*time.Millisecond {
		t.Fatalf("handshake RTT sample = %v, want ≈40ms", srtt)
	}
	if p.a.PacingRate() <= 0 {
		t.Fatal("pacing rate zero after handshake sample")
	}
	push(p.a, 0, 500_000)
	p.s.Run()
	// cwnd grew across the transfer; pacing rate must reflect cwnd/srtt.
	info := p.a.Info()
	wantMin := float64(info.Cwnd) / info.SRTT.Seconds()
	if info.PacingRate < wantMin {
		t.Fatalf("pacing %f < cwnd/srtt %f", info.PacingRate, wantMin)
	}
}

func TestInfoSnapshot(t *testing.T) {
	p := newPair(t, 17, 5*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	push(p.a, 0, 10_000)
	p.s.Run()
	in := p.a.Info()
	if in.State != StateEstablished {
		t.Fatalf("state %v", in.State)
	}
	if in.Stats.BytesAcked != 10_000 {
		t.Fatalf("BytesAcked = %d", in.Stats.BytesAcked)
	}
	if in.SndUna != in.SndNxt {
		t.Fatal("drained subflow has una != nxt")
	}
	if in.RTO < MinRTO {
		t.Fatalf("RTO = %v below floor", in.RTO)
	}
	if in.Backup {
		t.Fatal("default backup flag set")
	}
	p.a.SetBackup(true)
	if !p.a.Info().Backup {
		t.Fatal("SetBackup not reflected")
	}
}

func TestReorderingToleratedWithoutRetransmit(t *testing.T) {
	// Swap two adjacent data segments; cumulative ACKs plus the 3-dupack
	// threshold must absorb a single reordering without spurious loss.
	p := newPair(t, 18, 10*time.Millisecond, Config{})
	p.a.Connect()
	p.s.Run()
	var held *seg.Segment
	swapped := false
	p.dropAtoB = func(s *seg.Segment) bool {
		if !swapped && s.PayloadLen > 0 {
			if held == nil {
				held = seg.Shared.Clone(s)
				return true // hold the first data segment briefly
			}
			swapped = true
			h := held
			p.s.After(time.Millisecond, "release-held", func() {
				p.s.After(10*time.Millisecond, "wire->b", func() { p.b.HandleSegment(h) })
			})
		}
		return false
	}
	push(p.a, 0, 50_000)
	p.s.Run()
	if p.ob.newBytes != 50_000 {
		t.Fatalf("got %d", p.ob.newBytes)
	}
	if st := p.a.Info().Stats; st.FastRetrans != 0 && st.Timeouts != 0 {
		t.Fatalf("reordering triggered retransmits: %+v", st)
	}
}
