package seg

import "repro/internal/freelist"

// Pool recycles Segments so the simulator's data path runs without heap
// allocation in steady state. Its Get and Put work on the process store,
// safe for concurrent use and kept across GCs; code running on an event
// loop uses the loop's own list instead (On), which needs no lock.
//
// Ownership rules (see DESIGN.md "Segment ownership"): a segment obtained
// from Get is exclusively owned by the caller until handed off — to a
// netem link via a Packet, or back via Put. After the hand-off the
// previous owner must not touch it. Put fully Resets the segment, so
// pooling can never leak one run's bytes into another: a pooled run is
// bit-for-bit identical to an unpooled one. Where a segment was got does
// not matter to where it is put: every list hands out Reset segments.
type Pool struct {
	l freelist.List[*Segment]
}

// NewPool returns an empty segment pool. It keeps up to 1 << 14
// segments in the store and on each loop's list, the same bound as the
// simulator's event free list.
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

// Shared is the process-wide segment pool: the data path (tcp, mptcp,
// netem) uses its lists on each event loop (On), everything else the
// store. Independent simulations may share it freely: segments carry no
// cross-run state once Reset.
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

// Stats snapshots the store's counters, which take in each loop's as its
// list is flushed. A warm steady state has News ≈ 0.
func (p *Pool) Stats() freelist.Stats {
	return p.l.Stats()
}

// LoopStats snapshots the counters of the pool's list on the loop lp.
func (p *Pool) LoopStats(lp *freelist.Loop) freelist.Stats {
	return p.l.On(lp).Stats()
}

// On returns the pool's list on the event loop lp: Get and Put there as
// on the pool, for code running on that loop only.
func (p *Pool) On(lp *freelist.Loop) List {
	return List{p.l.On(lp)}
}

// List is one event loop's segment list (Pool.On).
type List struct {
	l *freelist.Local[*Segment]
}

// Get returns a fully reset segment owned by the caller.
func (l List) Get() *Segment {
	return l.l.Get()
}

// Put retires a segment, as Pool.Put does.
func (l List) Put(s *Segment) {
	if s == nil {
		return
	}
	s.Reset()
	l.l.Put(s)
}
