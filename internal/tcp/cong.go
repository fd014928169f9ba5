package tcp

// Reno is classic NewReno-style congestion control: slow start doubling,
// AIMD congestion avoidance, halving on fast retransmit, collapse to one
// MSS on RTO. Every subflow runs its own, uncoupled, which is what the
// paper's Mininet experiments run per subflow. It owns the congestion
// window; the subflow reports ACK, dup-ACK-loss and RTO events and asks for
// the current window when deciding whether to transmit.
type Reno struct {
	mss      int
	cwnd     int
	ssthresh int
	caAccum  int // fractional cwnd growth accumulator for congestion avoidance
}

// NewReno returns a Reno controller with the given MSS and initial window
// (in segments; Linux uses 10).
func NewReno(mss, initialWindowSegs int) *Reno {
	if initialWindowSegs <= 0 {
		initialWindowSegs = 10
	}
	return &Reno{
		mss:      mss,
		cwnd:     mss * initialWindowSegs,
		ssthresh: 1 << 30, // "infinite" until the first loss
	}
}

// Cwnd reports the congestion window in bytes.
func (r *Reno) Cwnd() int { return r.cwnd }

// SSThresh reports the slow-start threshold in bytes.
func (r *Reno) SSThresh() int { return r.ssthresh }

// InSlowStart reports whether the controller is in slow start.
func (r *Reno) InSlowStart() bool { return r.cwnd < r.ssthresh }

// OnAck processes acked bytes of new data.
func (r *Reno) OnAck(acked int) {
	if acked <= 0 {
		return
	}
	if r.InSlowStart() {
		r.cwnd += acked
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
		return
	}
	// Congestion avoidance: one MSS per cwnd of acked bytes.
	r.caAccum += acked * r.mss
	if grow := r.caAccum / r.cwnd; grow > 0 {
		r.cwnd += grow
		r.caAccum -= grow * r.cwnd // approximation; keeps growth ≈ mss/RTT
	}
}

// OnDupAckLoss processes a fast-retransmit loss event: multiplicative
// decrease.
func (r *Reno) OnDupAckLoss(flight int) {
	r.ssthresh = max(flight/2, 2*r.mss)
	r.cwnd = r.ssthresh
	r.caAccum = 0
}

// OnRTO processes a retransmission timeout: collapse to one segment.
func (r *Reno) OnRTO(flight int) {
	r.ssthresh = max(flight/2, 2*r.mss)
	r.cwnd = r.mss
	r.caAccum = 0
}
