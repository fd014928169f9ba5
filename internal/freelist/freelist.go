// Package freelist is the one object pool of the simulator: segments,
// packet shells, send-queue chunks, Netlink wire buffers and pooled
// simulator events each live on a List.
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
// The pools are used in two ways. Code that runs on an event loop (a
// sim.Simulator, one per shard of a sim.World) gets and puts on that
// loop's Local list, reached through the loop's Loop: one goroutine at a
// time ever touches it, so a Get or a Put is a slice pop or push with no
// lock. The List itself is the process-level store behind those lists,
// guarded by one mutex: a Local takes the store's whole slice when it
// runs empty (half of it when its loop is one of a run's several shards,
// so the others find the rest), hands its whole slice over when it fills
// to Max, and gives everything back when its run ends (Loop.Flush), so
// the next run, on whichever goroutine, reuses what this one returned.
// Code that runs on no loop (socket transports, benchmarks, tests) calls
// the List's own Get and Put, under its mutex.
//
// A lock per operation is what the loop lists avoid: on the bulk
// benchmark the pools took 18.6 % of the CPU profile as P-striped lists
// (43.5 ns per Get/Put pair; 34.8 ns under one mutex), and 2 % as loop
// lists, whose pair costs 6–8 ns (BenchmarkGetPut, 2-CPU container).
package freelist

import (
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of a list's traffic. Gets−News values were reused;
// Gets−Puts are outstanding (handed out and not yet returned).
type Stats struct {
	Gets uint64 // values handed out
	Puts uint64 // values returned, whether kept or dropped over Max
	News uint64 // Gets that found the list empty and called New
}

// List is the process-level store of values of type T. Set New and Max
// before first use.
type List[T any] struct {
	New func() T // mints a value when the list is empty
	Max int      // most values kept, here and on each Local; beyond it Put drops for the GC

	id atomic.Int32 // 1 + the list's slot in every Loop; 0 until first On

	mu    sync.Mutex
	free  []T
	stats Stats // off-loop traffic, plus every Local's up to its last hand-over
}

// Get pops the most recently Put value, else mints one with New.
func (l *List[T]) Get() T {
	l.mu.Lock()
	l.stats.Gets++
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.stats.News++
	l.mu.Unlock()
	return l.New()
}

// Put returns v, or drops it when the list already holds Max values. The
// caller must not use v afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.stats.Puts++
	if len(l.free) < l.Max {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}

// Stats reports the list's own traffic plus that of every Local as of its
// last hand-over (a refill, a spill or a Flush): after a run's loops are
// flushed, the process-wide totals.
func (l *List[T]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// slots counts the Loop slots handed out, one per List, in first-use order.
var slots atomic.Int32

// On returns the loop's list of l's values, attaching one on first use.
func (l *List[T]) On(lp *Loop) *Local[T] {
	id := l.id.Load()
	if id == 0 {
		l.id.CompareAndSwap(0, slots.Add(1)) // a loser's claim is left unused
		id = l.id.Load()
	}
	i := int(id) - 1
	if i < len(lp.locals) {
		if x, ok := lp.locals[i].(*Local[T]); ok {
			return x
		}
	} else {
		// Room for every List known so far: most loops allocate this once.
		n := max(i+1, int(slots.Load())) - len(lp.locals)
		lp.locals = append(lp.locals, make([]interface{ Flush() }, n)...)
	}
	x := &Local[T]{list: l, loop: lp, max: l.Max}
	lp.locals[i] = x
	return x
}

// Loop is one event loop's set of Local lists, one per List its code has
// used, by the List's slot. Only the loop's own goroutine may use it while
// the loop runs.
type Loop struct {
	// Split marks a loop that runs beside other loops drawing on the same
	// stores, as the shards of one run do: its lists take half of a
	// store's values, not all of them, so the other loops find the rest.
	Split bool

	locals []interface{ Flush() }
}

// Flush gives every Local of the loop back to its List (see Local.Flush).
func (lp *Loop) Flush() {
	for _, x := range lp.locals {
		if x != nil {
			x.Flush()
		}
	}
}

// Local is one event loop's single-writer list in front of a List. On a
// loop that is not Split it never keeps a backing array of its own next
// to the List's: it takes the List's slice whole and hands its own over
// whole, so a process running one loop at a time holds its free values in
// one array.
type Local[T any] struct {
	free   []T
	max    int // the List's Max
	stats  Stats
	list   *List[T]
	loop   *Loop
	handed Stats // the part of stats already added into the List's
}

// Get pops the most recently Put value, else takes the List's values and
// pops one of those, else mints one with New.
func (x *Local[T]) Get() (v T) {
	if n := len(x.free) - 1; n >= 0 {
		x.stats.Gets++
		v, x.free[n] = x.free[n], v // a value handed out is not the list's to keep alive
		x.free = x.free[:n]
		return v
	}
	return x.refill()
}

// refill is Get's slow path: the list is empty.
func (x *Local[T]) refill() T {
	x.take()
	if len(x.free) > 0 {
		return x.Get()
	}
	x.stats.Gets++
	x.stats.News++
	return x.list.New()
}

// Put returns v to the loop's list. The caller must not use v afterwards.
func (x *Local[T]) Put(v T) {
	n := len(x.free)
	if n == cap(x.free) || n >= x.max {
		x.putSlow(v)
		return
	}
	x.stats.Puts++
	x.free = x.free[:n+1]
	x.free[n] = v
}

// putSlow is Put's slow path: the list has no room in its array, or holds
// Max values. A list with no array yet adopts the List's, unless its loop
// is Split; a full one is handed to the List first, which keeps what fits
// under its own Max and drops the rest for the GC.
func (x *Local[T]) putSlow(v T) {
	x.stats.Puts++
	if x.free == nil && !x.loop.Split {
		x.take()
	}
	if len(x.free) >= x.max {
		x.give()
		if x.max == 0 {
			return
		}
	}
	x.free = append(x.free, v)
}

// Flush gives every value back to the List and leaves the local list
// empty, with no array: a run calls it on each of its loops when it ends,
// so the next run reuses what this one returned. The Local stays usable.
func (x *Local[T]) Flush() {
	x.give()
	x.free = nil
}

// Stats reports the local list's own traffic since it was attached.
func (x *Local[T]) Stats() Stats { return x.stats }

// take moves the List's values to the empty local list: the whole slice,
// or on a Split loop the top half (at least one), copied.
func (x *Local[T]) take() {
	l := x.list
	l.mu.Lock()
	x.hand()
	if n := len(l.free); n > 0 && x.loop.Split {
		keep := n / 2
		x.free = append(x.free, l.free[keep:]...)
		clear(l.free[keep:])
		l.free = l.free[:keep]
	} else if n > 0 {
		x.free, l.free = l.free, x.free[:0]
	}
	l.mu.Unlock()
}

// give moves every local value to the List: the whole slice when the List
// is empty, else what fits under Max, dropping the rest. The local list
// holds at most Max, so the List does too.
func (x *Local[T]) give() {
	l := x.list
	l.mu.Lock()
	x.hand()
	if len(l.free) == 0 {
		x.free, l.free = l.free, x.free
	} else {
		n := min(len(x.free), max(l.Max-len(l.free), 0))
		l.free = append(l.free, x.free[:n]...)
		clear(x.free)
		x.free = x.free[:0]
	}
	l.mu.Unlock()
}

// hand adds the traffic since the last hand-over into the List's
// counters; the caller holds the List's mutex.
func (x *Local[T]) hand() {
	st := &x.list.stats
	st.Gets += x.stats.Gets - x.handed.Gets
	st.Puts += x.stats.Puts - x.handed.Puts
	st.News += x.stats.News - x.handed.News
	x.handed = x.stats
}
