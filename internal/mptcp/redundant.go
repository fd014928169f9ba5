package mptcp

import (
	"time"

	"repro/internal/tcp"
)

// Redundant duplicates every chunk on every subflow whose window is open,
// trading goodput for latency: the receiver keeps whichever copy lands
// first, so one lossy path no longer stalls the stream behind its
// (backed-off) RTO. This is the classic scheduler for latency-critical
// traffic (the §4.3 streaming workload) and the natural upper bound for
// any reinjection heuristic.
//
// RFC 6824 backup semantics still hold: backup subflows receive copies
// only when no regular subflow is established.
//
// The scheduler keeps no state: PickAll appends to the caller's buffer,
// so the per-chunk pick does not allocate and no subflow pointer outlives
// the pick in here.
type Redundant struct{}

// Pick implements Scheduler by returning the primary copy's subflow
// (lowest RTT among the usable set, which is LowestRTT's pick), so
// Redundant degrades gracefully if a caller ignores PickAll.
func (Redundant) Pick(subflows []*tcp.Subflow, want int) *tcp.Subflow {
	return LowestRTT{}.Pick(subflows, want)
}

// PickAll implements MultiPicker: every usable subflow on the allowed
// priority tier, lowest RTT first (the first entry accounts for the
// bytes; the rest carry duplicates).
func (Redundant) PickAll(dst, subflows []*tcp.Subflow, want int) []*tcp.Subflow {
	collect := func(backup bool) []*tcp.Subflow {
		out := dst
		for _, sf := range subflows {
			if usable(sf, backup, want) {
				out = append(out, sf)
			}
		}
		// Insertion sort by SRTT: n is the subflow count (single digits),
		// and stability keeps equal-RTT subflows in creation order.
		picked := out[len(dst):]
		for i := 1; i < len(picked); i++ {
			for j := i; j > 0 && srttOf(picked[j]) < srttOf(picked[j-1]); j-- {
				picked[j], picked[j-1] = picked[j-1], picked[j]
			}
		}
		return out
	}
	if out := collect(false); len(out) > len(dst) {
		return out
	}
	if !backupsAllowed(subflows) {
		return dst
	}
	return collect(true)
}

func srttOf(sf *tcp.Subflow) time.Duration { return sf.SRTT() }
