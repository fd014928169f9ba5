package seg

import "repro/internal/freelist"

// Pool recycles Segments so the simulator's data path runs without heap
// allocation in steady state. It is a freelist.List, safe for concurrent
// use (the multi-seed runner drives many independent simulations at
// once), and keeps what it is given across GCs.
//
// Ownership rules (see DESIGN.md "Segment ownership"): a segment obtained
// from Get is exclusively owned by the caller until handed off — to a
// netem link via a Packet, or back via Put. After the hand-off the
// previous owner must not touch it. Put fully Resets the segment, so
// pooling can never leak one run's bytes into another: a pooled run is
// bit-for-bit identical to an unpooled one.
type Pool struct {
	l freelist.List[*Segment]
}

// NewPool returns an empty segment pool. It keeps up to 1 << 14
// segments per P, the same bound as the simulator's event free list.
func NewPool() *Pool {
	return &Pool{l: freelist.List[*Segment]{
		New: func() *Segment {
			s := &Segment{}
			s.Reset()
			return s
		},
		Max: 1 << 14,
	}}
}

// Shared is the process-wide segment pool used by the simulator's data
// path (tcp, mptcp, netem). Independent simulations may share it freely:
// segments carry no cross-run state once Reset.
var Shared = NewPool()

// Get returns a fully reset segment owned by the caller.
func (p *Pool) Get() *Segment {
	return p.l.Get()
}

// Put retires a segment. The caller must hold exclusive ownership and
// must not use s afterwards. Put(nil) is a no-op.
func (p *Pool) Put(s *Segment) {
	if s == nil {
		return
	}
	s.Reset()
	p.l.Put(s)
}

// Clone returns a pooled deep copy of s. Cloning a typical data segment
// (DSS and/or SACK options) reuses the destination's inline option
// storage and does not allocate.
func (p *Pool) Clone(s *Segment) *Segment {
	c := p.Get()
	c.CopyFrom(s)
	return c
}

// Stats snapshots the pool counters. A warm steady state has News ≈ 0.
func (p *Pool) Stats() freelist.Stats {
	return p.l.Stats()
}
