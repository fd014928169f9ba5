// Package mptcp implements the Multipath TCP connection layer on top of
// internal/tcp subflows: data-level sequencing via DSS mappings, receiver
// reassembly across subflows, packet scheduling (lowest-RTT by default, as
// in the Linux kernel), reinjection of timed-out data onto other subflows,
// backup-flag semantics (MP_PRIO), address advertisement (ADD_ADDR /
// REMOVE_ADDR), and the in-kernel path-manager interface of the paper's
// Figure 1 that internal/pm (full-mesh, ndiffports) and internal/core (the
// Netlink path manager — the paper's contribution) plug into.
package mptcp

import (
	"slices"
	"sort"
)

// ivalSet64 is a set of disjoint, non-adjacent, sorted half-open intervals
// over a 64-bit relative sequence space (no wraparound: data streams here
// are far below 2^63 bytes). It backs both the receiver's reassembly state
// and the sender's reinjection queue.
//
// Every mutation works in place on ivs: the affected run is located by
// binary search and the tail is shifted within the backing array
// (slices.Insert / slices.Delete, one copy each), so once that array has
// grown to the set's high-water mark no operation allocates.
// total is the byte count the set covers, maintained by every mutation so
// bytes() is O(1).
type ivalSet64 struct {
	ivs   []ival64
	total uint64
}

type ival64 struct{ lo, hi uint64 } // [lo, hi)

// searchHi returns the first index whose interval ends at or after x.
// Interval ends are sorted because the intervals are sorted and disjoint.
func (s *ivalSet64) searchHi(x uint64) int {
	return sort.Search(len(s.ivs), func(m int) bool { return s.ivs[m].hi >= x })
}

// add unions [lo,hi) into the set and reports whether any byte was new.
func (s *ivalSet64) add(lo, hi uint64) bool {
	if lo >= hi {
		return false
	}
	// ivs[i:j] are the intervals that overlap or touch [lo,hi).
	i := s.searchHi(lo)
	j := i
	for j < len(s.ivs) && s.ivs[j].lo <= hi {
		j++
	}
	if i == j {
		s.ivs = slices.Insert(s.ivs, i, ival64{lo, hi})
		s.total += hi - lo
		return true
	}
	isNew := !(s.ivs[i].lo <= lo && hi <= s.ivs[i].hi)
	merged := ival64{min(lo, s.ivs[i].lo), max(hi, s.ivs[j-1].hi)}
	s.total += merged.hi - merged.lo - covered(s.ivs[i:j])
	s.ivs[i] = merged
	s.ivs = slices.Delete(s.ivs, i+1, j)
	return isNew
}

// remove deletes [lo,hi) from the set.
func (s *ivalSet64) remove(lo, hi uint64) {
	if lo >= hi {
		return
	}
	// ivs[i:j] are the intervals that overlap [lo,hi) — and possibly one
	// that only touches lo, which survives whole as the left remnant.
	i := s.searchHi(lo)
	j := i
	for j < len(s.ivs) && s.ivs[j].lo < hi {
		j++
	}
	if i == j {
		return
	}
	left, right := s.ivs[i], s.ivs[j-1]
	s.total -= covered(s.ivs[i:j])
	// Up to two remnants survive: the part of the first interval below lo
	// and the part of the last above hi.
	k := i
	if left.lo < lo {
		s.total += lo - left.lo
		s.ivs[k] = ival64{left.lo, lo}
		k++
	}
	if hi < right.hi {
		s.total += right.hi - hi
		if k == j { // one interval split in two: open a slot
			s.ivs = slices.Insert(s.ivs, k, ival64{})
			j++
		}
		s.ivs[k] = ival64{hi, right.hi}
		k++
	}
	s.ivs = slices.Delete(s.ivs, k, j)
}

// dropFront removes the n lowest intervals, keeping the backing array.
func (s *ivalSet64) dropFront(n int) {
	s.total -= covered(s.ivs[:n])
	s.ivs = slices.Delete(s.ivs, 0, n)
}

// covered sums the lengths of ivs.
func covered(ivs []ival64) uint64 {
	var n uint64
	for _, iv := range ivs {
		n += iv.hi - iv.lo
	}
	return n
}

// first returns the lowest interval, if any.
func (s *ivalSet64) first() (ival64, bool) {
	if len(s.ivs) == 0 {
		return ival64{}, false
	}
	return s.ivs[0], true
}

// contains reports whether the full range [lo,hi) is in the set.
func (s *ivalSet64) contains(lo, hi uint64) bool {
	for _, iv := range s.ivs {
		if iv.lo <= lo && hi <= iv.hi {
			return true
		}
	}
	return false
}

// empty reports whether the set has no intervals.
func (s *ivalSet64) empty() bool { return len(s.ivs) == 0 }

// bytes reports the total length covered.
func (s *ivalSet64) bytes() uint64 { return s.total }

// reassembly tracks the receiver's in-order frontier plus out-of-order
// islands in relative data-sequence space.
type reassembly struct {
	nxt uint64 // next expected relative data sequence number
	ooo ivalSet64
}

// receive folds [lo,hi) in; it reports whether the in-order frontier moved.
func (r *reassembly) receive(lo, hi uint64) bool {
	before := r.nxt
	if hi <= r.nxt {
		return false
	}
	if lo <= r.nxt {
		r.nxt = hi
	} else {
		r.ooo.add(lo, hi)
	}
	// Drain the islands the frontier reached; they sit at the sorted front.
	n := 0
	for _, iv := range r.ooo.ivs {
		if iv.lo > r.nxt {
			break
		}
		r.nxt = max(r.nxt, iv.hi)
		n++
	}
	if n > 0 {
		r.ooo.dropFront(n)
	}
	return r.nxt != before
}
