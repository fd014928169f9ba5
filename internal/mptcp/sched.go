package mptcp

import (
	"time"

	"repro/internal/tcp"
)

// Scheduler decides which established subflow carries the next chunk of
// data. The kernel's default — and the one all the paper's experiments run
// — prefers the lowest-RTT subflow whose congestion window is open; backup
// subflows are used only when no regular subflow is usable (RFC 6824
// backup semantics).
//
// Schedulers are registered by name (in the Schedulers table) so
// experiments can sweep every known policy; the built-ins are "lowest-rtt",
// "round-robin", "redundant" and "weighted-rtt".
type Scheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Pick returns the subflow to send on, or nil if none can take data
	// now. want is the chunk size the connection would like to place.
	Pick(subflows []*tcp.Subflow, want int) *tcp.Subflow
}

// MultiPicker is an optional Scheduler extension for redundant policies:
// PickAll appends to dst every subflow that should carry a copy of the
// chunk and returns the extended slice. The first subflow appended is the
// primary (it accounts for the bytes); the rest receive duplicates.
// Appending nothing means nothing can be sent now.
type MultiPicker interface {
	PickAll(dst, subflows []*tcp.Subflow, want int) []*tcp.Subflow
}

// usable reports whether sf can take a want-byte chunk right now on the
// given priority tier.
func usable(sf *tcp.Subflow, backup bool, want int) bool {
	return sf.Backup() == backup && sf.Established() && sf.AvailableCwnd() >= want
}

// backupsAllowed implements the RFC 6824 rule every scheduler shares:
// backup subflows may carry data only when no regular subflow is
// established. Regular subflows that are merely cwnd-limited but alive
// block the backups — the connection waits for them instead.
func backupsAllowed(subflows []*tcp.Subflow) bool {
	for _, sf := range subflows {
		if !sf.Backup() && sf.Established() {
			return false
		}
	}
	return true
}

// LowestRTT is the default Linux MPTCP scheduler: among subflows with an
// open congestion window, pick the one with the smallest smoothed RTT.
// Non-backup subflows always win over backup subflows.
type LowestRTT struct{}

// Name implements Scheduler.
func (LowestRTT) Name() string { return "lowest-rtt" }

// Pick implements Scheduler.
func (LowestRTT) Pick(subflows []*tcp.Subflow, want int) *tcp.Subflow {
	pick := func(backup bool) *tcp.Subflow {
		var best *tcp.Subflow
		var bestRTT time.Duration
		for _, sf := range subflows {
			// The window must fit the whole chunk: allowing sub-MSS
			// crumbs fragments the stream into tiny segments (half the
			// link then carries headers), which no real stack does.
			if !usable(sf, backup, want) {
				continue
			}
			rtt := sf.SRTT()
			if best == nil || rtt < bestRTT {
				best, bestRTT = sf, rtt
			}
		}
		return best
	}
	if sf := pick(false); sf != nil {
		return sf
	}
	if !backupsAllowed(subflows) {
		return nil
	}
	return pick(true)
}

// RoundRobin cycles through subflows with open windows, ignoring RTT. It
// exists as the classic comparison scheduler (Paasch et al., CSWS'14).
type RoundRobin struct {
	last int
}

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Scheduler.
func (r *RoundRobin) Pick(subflows []*tcp.Subflow, want int) *tcp.Subflow {
	n := len(subflows)
	if n == 0 {
		return nil
	}
	pick := func(backup bool) *tcp.Subflow {
		for i := 1; i <= n; i++ {
			sf := subflows[(r.last+i)%n]
			if !usable(sf, backup, want) {
				continue
			}
			r.last = (r.last + i) % n
			return sf
		}
		return nil
	}
	if sf := pick(false); sf != nil {
		return sf
	}
	if !backupsAllowed(subflows) {
		return nil
	}
	return pick(true)
}
