package mptcp

// The rebuild-a-slice interval set the connection ran on before
// ivalSet64 went in place, kept as the referee for the differential tests
// below.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/testutil"
)

type refIvalSet64 struct {
	ivs []ival64
}

func (s *refIvalSet64) add(lo, hi uint64) bool {
	if lo >= hi {
		return false
	}
	merged := ival64{lo, hi}
	isNew := true
	out := s.ivs[:0]
	var rest []ival64
	for _, iv := range s.ivs {
		switch {
		case iv.hi < merged.lo:
			out = append(out, iv)
		case merged.hi < iv.lo:
			rest = append(rest, iv)
		default:
			if iv.lo <= merged.lo && merged.hi <= iv.hi {
				isNew = false
			}
			if iv.lo < merged.lo {
				merged.lo = iv.lo
			}
			if iv.hi > merged.hi {
				merged.hi = iv.hi
			}
		}
	}
	out = append(out, merged)
	out = append(out, rest...)
	s.ivs = out
	return isNew
}

func (s *refIvalSet64) remove(lo, hi uint64) {
	if lo >= hi {
		return
	}
	var out []ival64
	for _, iv := range s.ivs {
		if iv.hi <= lo || hi <= iv.lo {
			out = append(out, iv)
			continue
		}
		if iv.lo < lo {
			out = append(out, ival64{iv.lo, lo})
		}
		if hi < iv.hi {
			out = append(out, ival64{hi, iv.hi})
		}
	}
	s.ivs = out
}

func (s *refIvalSet64) bytes() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.hi - iv.lo
	}
	return n
}

// refReassembly drains by first()/remove(), one island per pass.
type refReassembly struct {
	nxt uint64
	ooo refIvalSet64
}

func (r *refReassembly) receive(lo, hi uint64) bool {
	before := r.nxt
	if hi <= r.nxt {
		return false
	}
	if lo <= r.nxt {
		r.nxt = hi
	} else {
		r.ooo.add(lo, hi)
	}
	for len(r.ooo.ivs) > 0 && r.ooo.ivs[0].lo <= r.nxt {
		iv := r.ooo.ivs[0]
		if iv.hi > r.nxt {
			r.nxt = iv.hi
		}
		r.ooo.remove(iv.lo, iv.hi)
	}
	return r.nxt != before
}

// TestIvalSetMatchesReference applies one random add/remove stream to
// both sets. Ranges are drawn on a coarse grid so adjacency, exact cover
// and multi-interval spans all occur.
func TestIvalSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got ivalSet64
		var ref refIvalSet64
		maxLen := 0
		for step := 0; step < 20000; step++ {
			lo := uint64(rng.Intn(200)) * 10
			hi := lo + uint64(rng.Intn(12))*5 // sometimes empty
			if rng.Intn(10) == 0 {
				hi = lo + uint64(rng.Intn(60))*10 // a wide range now and then
			}
			op := "add"
			if rng.Intn(5) < 2 {
				op = "remove"
				got.remove(lo, hi)
				ref.remove(lo, hi)
			} else if a, b := got.add(lo, hi), ref.add(lo, hi); a != b {
				t.Fatalf("seed %d step %d: add(%d,%d) = %v, reference %v", seed, step, lo, hi, a, b)
			}
			if !slices.Equal(got.ivs, ref.ivs) {
				t.Fatalf("seed %d step %d: after %s(%d,%d): %v, reference %v", seed, step, op, lo, hi, got.ivs, ref.ivs)
			}
			if got.bytes() != ref.bytes() {
				t.Fatalf("seed %d step %d: after %s(%d,%d): bytes = %d, reference sums %d", seed, step, op, lo, hi, got.bytes(), ref.bytes())
			}
			maxLen = max(maxLen, len(got.ivs))
		}
		if maxLen < 8 {
			t.Fatalf("seed %d: the set never exceeded %d intervals; the stream is too tame", seed, maxLen)
		}
	}
}

// TestReassemblyMatchesReference stripes a stream over random reordering,
// duplication and overlap, the way unequal-delay subflows deliver it.
func TestReassemblyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got reassembly
		var ref refReassembly
		for step := 0; step < 20000; step++ {
			lo := got.nxt + 100*uint64(rng.Intn(40))
			if lo >= 200 {
				lo -= 200
			}
			hi := lo + 1 + uint64(rng.Intn(300))
			if a, b := got.receive(lo, hi), ref.receive(lo, hi); a != b {
				t.Fatalf("seed %d step %d: receive(%d,%d) = %v, reference %v", seed, step, lo, hi, a, b)
			}
			if got.nxt != ref.nxt || !slices.Equal(got.ooo.ivs, ref.ooo.ivs) || got.ooo.bytes() != ref.ooo.bytes() {
				t.Fatalf("seed %d step %d: after receive(%d,%d): nxt %d ooo %v (%d B), reference nxt %d ooo %v (%d B)",
					seed, step, lo, hi, got.nxt, got.ooo.ivs, got.ooo.bytes(), ref.nxt, ref.ooo.ivs, ref.ooo.bytes())
			}
		}
	}
}

// TestReassemblyOOOAllocFree pins the reordered receive path (the bench
// probe mptcp.ooo_seg_allocs): once the island slice has grown to its
// high-water mark, segments that arrive out of order, merge islands and
// drain them allocate nothing.
func TestReassemblyOOOAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	var r reassembly
	// A 16-segment window delivered odd segments first, then even ones
	// back to front: eight islands build up, merge pairwise and drain when
	// segment 0 lands.
	window := func() {
		base := r.nxt
		for i := uint64(1); i < 16; i += 2 {
			r.receive(base+i*1380, base+(i+1)*1380)
		}
		for i := uint64(14); i < 16; i -= 2 {
			r.receive(base+i*1380, base+(i+1)*1380)
		}
		if r.nxt != base+16*1380 || !r.ooo.empty() {
			t.Fatalf("window not reassembled: nxt %d, ooo %v", r.nxt-base, r.ooo.ivs)
		}
	}
	window()
	if avg := testing.AllocsPerRun(1000, window); avg != 0 {
		t.Fatalf("out-of-order reassembly allocates %.2f allocs/op, want 0", avg)
	}
}
