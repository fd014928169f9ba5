package tcp

import (
	"testing"
	"time"
)

func TestRenoSlowStart(t *testing.T) {
	r := NewReno(1000, 10)
	if r.Cwnd() != 10000 {
		t.Fatalf("initial cwnd = %d, want 10000", r.Cwnd())
	}
	if !r.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	r.OnAck(10000) // a full window acked
	if r.Cwnd() != 20000 {
		t.Fatalf("cwnd after full-window ack = %d, want 20000 (doubling)", r.Cwnd())
	}
}

func TestRenoCongestionAvoidance(t *testing.T) {
	r := NewReno(1000, 10)
	r.OnDupAckLoss(20000) // ssthresh = 10000, cwnd = 10000 → now in CA
	if r.InSlowStart() {
		t.Fatal("should be in congestion avoidance after loss")
	}
	start := r.Cwnd()
	r.OnAck(start) // one full window of acks
	growth := r.Cwnd() - start
	if growth < 500 || growth > 2000 {
		t.Fatalf("CA growth per RTT = %d, want ≈ 1 MSS (1000)", growth)
	}
}

func TestRenoLossAndRTO(t *testing.T) {
	r := NewReno(1000, 10)
	r.OnDupAckLoss(8000)
	if r.Cwnd() != 4000 || r.SSThresh() != 4000 {
		t.Fatalf("after dupack loss: cwnd=%d ssthresh=%d, want 4000/4000", r.Cwnd(), r.SSThresh())
	}
	r.OnRTO(4000)
	if r.Cwnd() != 1000 {
		t.Fatalf("after RTO: cwnd=%d, want 1 MSS", r.Cwnd())
	}
	if r.SSThresh() != 2000 {
		t.Fatalf("after RTO: ssthresh=%d, want 2000", r.SSThresh())
	}
	// Floor: ssthresh never below 2 MSS.
	r.OnRTO(0)
	if r.SSThresh() != 2000 {
		t.Fatalf("ssthresh floor broken: %d", r.SSThresh())
	}
}

func TestRenoZeroAckIgnored(t *testing.T) {
	r := NewReno(1000, 10)
	before := r.Cwnd()
	r.OnAck(0)
	if r.Cwnd() != before {
		t.Fatal("zero-byte ack changed cwnd")
	}
}

func TestRTTEstimatorFirstSample(t *testing.T) {
	e := NewRTTEstimator()
	if e.RTO() != InitialRTO {
		t.Fatalf("initial RTO = %v, want 1s", e.RTO())
	}
	if e.HasSample() {
		t.Fatal("HasSample before any sample")
	}
	e.Sample(100 * time.Millisecond)
	if e.SRTT() != 100*time.Millisecond {
		t.Fatalf("srtt = %v, want 100ms", e.SRTT())
	}
	if e.RTTVar() != 50*time.Millisecond {
		t.Fatalf("rttvar = %v, want srtt/2", e.RTTVar())
	}
	// RTO = srtt + 4*rttvar = 300ms.
	if e.RTO() != 300*time.Millisecond {
		t.Fatalf("rto = %v, want 300ms", e.RTO())
	}
}

func TestRTTEstimatorConvergence(t *testing.T) {
	e := NewRTTEstimator()
	for i := 0; i < 100; i++ {
		e.Sample(50 * time.Millisecond)
	}
	if d := e.SRTT() - 50*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("srtt did not converge: %v", e.SRTT())
	}
	// With zero variance the RTO clamps to the 200ms floor.
	if e.RTO() != MinRTO {
		t.Fatalf("rto = %v, want MinRTO", e.RTO())
	}
}

func TestRTTEstimatorSpike(t *testing.T) {
	e := NewRTTEstimator()
	for i := 0; i < 50; i++ {
		e.Sample(20 * time.Millisecond)
	}
	before := e.RTO()
	e.Sample(500 * time.Millisecond) // spike inflates var and srtt
	if e.RTO() <= before {
		t.Fatalf("RTO did not grow after RTT spike: %v -> %v", before, e.RTO())
	}
}

func TestRTTEstimatorClampAndReset(t *testing.T) {
	e := NewRTTEstimator()
	e.Sample(200 * time.Second)
	if e.RTO() != MaxRTO {
		t.Fatalf("rto = %v, want MaxRTO clamp", e.RTO())
	}
	e.Reset()
	if e.HasSample() || e.RTO() != InitialRTO {
		t.Fatal("Reset incomplete")
	}
	e.Sample(0) // nonpositive samples guarded
	if e.SRTT() <= 0 {
		t.Fatal("zero sample broke estimator")
	}
}

func TestBackoffRTO(t *testing.T) {
	if got := BackoffRTO(time.Second, 0); got != time.Second {
		t.Fatalf("0 backoffs: %v", got)
	}
	if got := BackoffRTO(time.Second, 3); got != 8*time.Second {
		t.Fatalf("3 backoffs: %v, want 8s", got)
	}
	if got := BackoffRTO(time.Second, 30); got != MaxRTO {
		t.Fatalf("30 backoffs: %v, want MaxRTO", got)
	}
	// The paper's §4.2 scenario: 15 doublings of a 200ms RTO saturate at
	// MaxRTO; the cumulative wait before subflow death is minutes.
	total := time.Duration(0)
	for n := 0; n <= 15; n++ {
		total += BackoffRTO(MinRTO, n)
	}
	if total < 10*time.Minute || total > 20*time.Minute {
		t.Fatalf("cumulative backoff wait = %v, want ≈ 12-15 min", total)
	}
}
