// Package tcp implements the subflow-level TCP engine the Multipath TCP
// stack in internal/mptcp is built on: connection establishment, reliable
// delivery with cumulative ACKs and fast retransmit, RFC 6298 RTT
// estimation and retransmission timeouts with exponential backoff (and the
// Linux behaviour of killing a subflow after a configurable number of
// consecutive backoffs), pluggable congestion control, and the pacing-rate
// estimate recent Linux kernels expose (the signal §4.4's refresh
// controller polls).
//
// The engine is event driven on a sim.Simulator virtual clock and emits
// segments through an Output; it never blocks.
package tcp

import (
	"time"
)

// RTT tracking constants per RFC 6298 and the Linux implementation.
const (
	// MinRTO matches Linux TCP_RTO_MIN (200 ms).
	MinRTO = 200 * time.Millisecond
	// MaxRTO matches Linux TCP_RTO_MAX (120 s).
	MaxRTO = 120 * time.Second
	// InitialRTO matches Linux TCP_TIMEOUT_INIT (1 s).
	InitialRTO = time.Second
)

// RTTEstimator implements the RFC 6298 smoothed RTT / RTT variance
// estimator with Linux's clamping rules.
type RTTEstimator struct {
	srtt   time.Duration // 0 until the first sample, > 0 from then on
	rttvar time.Duration
	rto    time.Duration
}

// NewRTTEstimator returns an estimator whose RTO starts at InitialRTO.
func NewRTTEstimator() *RTTEstimator {
	return &RTTEstimator{rto: InitialRTO}
}

// Sample feeds one RTT measurement (from a segment that was not
// retransmitted, per Karn's algorithm — the caller enforces that).
func (e *RTTEstimator) Sample(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if e.srtt == 0 {
		e.srtt = rtt
		e.rttvar = rtt / 2
	} else {
		// RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
		//           srtt   = 7/8 srtt   + 1/8 rtt
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	rto := e.srtt + 4*e.rttvar
	e.rto = clampRTO(rto)
}

// Reset forgets all samples (used by eMPTCP-style tricks and tests).
func (e *RTTEstimator) Reset() {
	*e = RTTEstimator{rto: InitialRTO}
}

// SRTT reports the smoothed RTT (0 before the first sample).
func (e *RTTEstimator) SRTT() time.Duration { return e.srtt }

// RTTVar reports the RTT variance estimate.
func (e *RTTEstimator) RTTVar() time.Duration { return e.rttvar }

// RTO reports the base retransmission timeout (before backoff).
func (e *RTTEstimator) RTO() time.Duration { return e.rto }

// HasSample reports whether at least one measurement has been taken.
func (e *RTTEstimator) HasSample() bool { return e.srtt > 0 }

func clampRTO(rto time.Duration) time.Duration {
	if rto < MinRTO {
		return MinRTO
	}
	if rto > MaxRTO {
		return MaxRTO
	}
	return rto
}

// BackoffRTO applies n exponential-backoff doublings to a base RTO,
// saturating at MaxRTO.
func BackoffRTO(base time.Duration, n int) time.Duration {
	rto := base
	for i := 0; i < n; i++ {
		rto *= 2
		if rto >= MaxRTO {
			return MaxRTO
		}
	}
	return rto
}
