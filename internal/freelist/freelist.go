// Package freelist is the one object pool of the simulator's process-wide
// recycling: segments, packet shells, send-queue chunks and Netlink wire
// buffers each live on a List.
//
// A List is not a sync.Pool, for two reasons:
//
//   - A sync.Pool drops its contents at every second GC, so a workload
//     whose peak is thousands of objects re-allocates that whole peak
//     after each collection. A List keeps what it was given until Get
//     hands it out again; only Max bounds what it retains.
//   - Storing a []byte in a sync.Pool boxes the slice header on every
//     Put, which is itself an allocation. A List[[]byte] stores headers
//     in its own slice.
//
// Several goroutines use the lists at once: the multi-seed runner's
// workers, and the shards of a sharded simulation. One mutex per list is
// contended on every operation there (on a 2-CPU host it made `mpexp run
// scale -seeds 8 -parallel 2` at bulk size about 45 % slower than with
// per-P sync.Pools), so a List is split into one mutex-guarded LIFO
// stripe per P (GOMAXPROCS), the way a sync.Pool keeps per-P caches. Get and Put use the stripe of the P they run on,
// whose lock is then almost never contended and whose values were last
// touched by the same core. A Get that finds its stripe empty takes a
// value from another stripe before it mints one, so a run on one P still
// reuses what an earlier run on another P returned. Max caps each
// stripe, so a list retains at most Max × GOMAXPROCS values.
package freelist

import (
	"runtime"
	"sync"
	_ "unsafe" // for go:linkname
)

// Stats is a snapshot of a list's traffic. Gets−News values were reused;
// Gets−Puts are outstanding (handed out and not yet returned).
type Stats struct {
	Gets uint64 // values handed out
	Puts uint64 // values returned, whether kept or dropped over Max
	News uint64 // Gets that found every stripe empty and called New
}

// List recycles values of type T. Set New and Max before first use.
type List[T any] struct {
	New func() T // mints a value when the list is empty
	Max int      // most values kept per stripe; Put drops beyond it for the GC

	once    sync.Once
	stripes []stripe[T]
}

type stripe[T any] struct {
	mu    sync.Mutex
	free  []T
	stats Stats
	_     [64]byte // keeps neighbouring stripes off each other's cache lines
}

// procPin and procUnpin return the current P's index with preemption
// held off; sync.Pool uses the same pair to find its per-P cache.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// home returns the stripe of the P the caller runs on. The goroutine may
// move to another P right after; the stripe's mutex keeps that correct,
// it only costs locality.
func (l *List[T]) home() *stripe[T] {
	stripes := l.all()
	p := procPin()
	procUnpin()
	if p >= len(stripes) { // GOMAXPROCS grew after the stripes were made
		p %= len(stripes)
	}
	return &stripes[p]
}

// all returns the stripes, made on first use, one per P.
func (l *List[T]) all() []stripe[T] {
	l.once.Do(func() { l.stripes = make([]stripe[T], runtime.GOMAXPROCS(0)) })
	return l.stripes
}

// Get pops the most recently Put value of the caller's stripe, else a
// value from another stripe, else mints one with New.
func (l *List[T]) Get() T {
	h := l.home()
	if v, ok := h.pop(); ok {
		return v
	}
	for i := range l.stripes {
		if s := &l.stripes[i]; s != h {
			if v, ok := s.pop(); ok {
				return v
			}
		}
	}
	h.mu.Lock()
	h.stats.Gets++
	h.stats.News++
	h.mu.Unlock()
	return l.New()
}

// pop takes the stripe's most recently Put value, counting the Get.
func (s *stripe[T]) pop() (v T, ok bool) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		v, ok = s.free[n-1], true
		var zero T
		s.free[n-1] = zero
		s.free = s.free[:n-1]
		s.stats.Gets++
	}
	s.mu.Unlock()
	return v, ok
}

// Put returns v to the caller's stripe, or drops it when that stripe
// already holds Max values. The caller must not use v afterwards.
func (l *List[T]) Put(v T) {
	s := l.home()
	s.mu.Lock()
	s.stats.Puts++
	if len(s.free) < l.Max {
		s.free = append(s.free, v)
	}
	s.mu.Unlock()
}

// Stats sums the traffic counters of every stripe.
func (l *List[T]) Stats() Stats {
	var st Stats
	stripes := l.all()
	for i := range stripes {
		s := &stripes[i]
		s.mu.Lock()
		st.Gets += s.stats.Gets
		st.Puts += s.stats.Puts
		st.News += s.stats.News
		s.mu.Unlock()
	}
	return st
}
