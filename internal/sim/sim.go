// Package sim provides a deterministic discrete-event simulation engine.
//
// All higher layers of this repository (network emulation, the TCP and
// Multipath TCP stacks, the subflow controllers) are driven by a single
// virtual clock owned by a Simulator. Events are callbacks scheduled at
// absolute virtual times; the simulator repeatedly pops the earliest event
// and runs it. Runs are fully deterministic for a given seed, which makes
// every experiment in this repository reproducible bit-for-bit.
package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It intentionally mirrors time.Duration semantics so the two
// interoperate cheaply.
type Time int64

// Common time unit helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Duration converts a virtual timestamp into a time.Duration from t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Event is a scheduled callback. Holding the *Event returned by Schedule
// allows cancellation.
//
// Events come in three flavours, distinguished so the steady-state data
// path never allocates:
//   - classic events (Schedule/After): heap-allocated, handle escapes to
//     the caller, never recycled;
//   - pooled events (ScheduleArg): drawn from the simulator's free list
//     and recycled immediately after firing — no handle, no cancellation;
//   - owned events (Timer/Ticker/Relay): embedded in their owner and
//     re-armed in place for the owner's whole lifetime.
//
// Every flavour calls fn(arg); a classic event's func() rides in arg behind
// callFunc, and boxing a func value allocates nothing. The event keeps no
// name: only the scheduling-in-the-past panic would read one, and label
// derives as much from fn's symbol and arg. Every tcp.Subflow embeds two
// (its timers), which is why the layout is held at 56 bytes (TestEventSize).
type Event struct {
	when Time
	ent  uint64 // owning entity ordinal (0 on a bare Simulator)
	seq  uint64 // tie-break: FIFO among equal (when, ent)
	fn   func(any)
	arg  any   // fn's state (a pointer or a func value: no boxing)
	idx  int32 // heap index, -1 once removed

	pooled bool // recycle onto the free list after firing
	owned  bool // callback survives firing (Timer/Ticker/Relay re-arm in place)
	firing bool // owned event inside its callback, not re-armed yet
}

// callFunc runs a classic event's, or a NewTimer timer's, func().
func callFunc(fn any) { fn.(func())() }

// label names the event for the scheduling-in-the-past panic: the symbol of
// its callback (of the func() a classic event wraps), plus its state when
// that can describe itself, such as the owner behind a timer.
func (e *Event) label() string {
	var fn any = e.fn
	if f, ok := e.arg.(func()); ok {
		fn = f
	}
	name := "?"
	if f := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()); f != nil {
		name = f.Name()
	}
	if s, ok := e.arg.(fmt.Stringer); ok {
		return name + " " + s.String()
	}
	return name
}

// Cancelled reports whether the event has been cancelled or already fired.
func (e *Event) Cancelled() bool { return e.idx < 0 }

// eventHeap is the pending-event queue: a 4-ary min-heap of *Event with
// concrete (non-interface) sift loops. Four children per node halve the
// depth of a binary heap, and a sift moves a hole instead of swapping, so
// a push or pop writes each touched slot once. Every move maintains
// Event.idx, which is what lets timers be fixed and removed in place.
//
// Events are ordered by the total key (when, ent, seq). On a bare
// Simulator every event has ent 0, so the order degenerates to the classic
// (when, seq) FIFO. Under a sharded World the entity ordinal and per-entity
// sequence make the key independent of how entities fold onto shards,
// which is what keeps sharded runs bit-identical at any shard count. No
// two queued events share a key, so the pop order is a property of the
// key alone: any heap shape or arity replays identically.
type eventHeap []*Event

const heapArity = 4

func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.ent != b.ent {
		return a.ent < b.ent
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	e := (*h)[0]
	h.remove(0)
	return e
}

// fix restores heap order after the key of the event at i changed.
func (h eventHeap) fix(i int) {
	if i > 0 && eventLess(h[i], h[(i-1)/heapArity]) {
		h.up(i)
		return
	}
	h.down(i)
}

// remove deletes the event at i and marks it unqueued (idx -1).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	e := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		h.fix(i)
	}
	e.idx = -1
}

// up sifts the event at i towards the root.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = e
	e.idx = int32(i)
}

// down sifts the event at i towards the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+heapArity && j < n; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].idx = int32(i)
		i = m
	}
	h[i] = e
	e.idx = int32(i)
}

// Simulator owns the virtual clock and the pending event queue.
// It is not safe for concurrent use: the entire simulation is single
// threaded by design, which is what makes it deterministic.
type Simulator struct {
	now       Time
	queue     eventHeap
	nextSeq   uint64
	src       lazySource
	rng       *rand.Rand // wraps src; created by the first Rand call
	stopped   bool
	free      []*Event // recycled pooled events (ScheduleArg)
	processed uint64

	// (ent, seq) of the event now running; idleKey in both while no event
	// runs, so that every key at the current instant has passed.
	curEnt, curSeq uint64

	// Pooled-event free-list traffic. Single-writer (the loop's own
	// goroutine), harvested between runs via EventPoolStats.
	evGets uint64 // pooled events drawn (free list or fresh)
	evPuts uint64 // pooled events recycled after firing
	evNews uint64 // draws that missed the free list
}

// maxFreeEvents bounds the pooled-event free list; beyond this the burst
// is returned to the garbage collector.
const maxFreeEvents = 1 << 14

// idleKey is the running key's ordinal and sequence between events.
const idleKey = ^uint64(0)

// New returns a simulator whose random stream is that of
// rand.NewSource(seed), held lazily (lazySource): a World's shard loops
// never draw and pay nothing for it. The same seed always yields the same
// run.
func New(seed int64) *Simulator {
	s := &Simulator{curEnt: idleKey, curSeq: idleKey}
	s.src.Seed(seed)
	return s
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed counts events executed since construction.
func (s *Simulator) Processed() uint64 { return s.processed }

// EventPoolStats snapshots the pooled-event free-list counters: events
// drawn, events recycled, and draws that had to heap-allocate. Gets-News
// is the number of reuses.
func (s *Simulator) EventPoolStats() (gets, puts, news uint64) {
	return s.evGets, s.evPuts, s.evNews
}

// Rand exposes the simulation's deterministic random source. All model
// randomness (loss draws, jitter, port selection) must come from here.
func (s *Simulator) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(&s.src)
	}
	return s.rng
}

// Schedule runs fn at absolute virtual time when. Scheduling in the past
// (before Now) panics: it always indicates a model bug.
func (s *Simulator) Schedule(when Time, name string, fn func()) *Event {
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, when, s.now))
	}
	e := &Event{when: when, seq: s.Reserve(), fn: callFunc, arg: fn}
	s.queue.push(e)
	return e
}

// After runs fn d after the current time.
func (s *Simulator) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), name, fn)
}

// ScheduleArg is the allocation-free Schedule variant for the data path:
// fn must be a preallocated func value and any per-event state rides in
// arg (pass a pointer so boxing into the interface does not allocate).
// The backing Event comes from a free list and is recycled right after
// firing, so no handle is returned and the event cannot be cancelled.
func (s *Simulator) ScheduleArg(when Time, name string, fn func(any), arg any) {
	s.scheduleArgKeyed(when, 0, s.Reserve(), name, fn, arg)
}

// AfterArg is ScheduleArg relative to the current time.
func (s *Simulator) AfterArg(d time.Duration, name string, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.ScheduleArg(s.now.Add(d), name, fn, arg)
}

// scheduleArgKeyed pushes a pooled event with a caller-provided ordering
// key. Per-entity clocks and the cross-shard mailbox route through here so
// the (when, ent, seq) key is computed by the sender, making the total
// order independent of which shard the event lands on.
func (s *Simulator) scheduleArgKeyed(when Time, ent, seqn uint64, name string, fn func(any), arg any) {
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, when, s.now))
	}
	var e *Event
	s.evGets++
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		s.evNews++
		e = &Event{pooled: true}
	}
	e.when, e.ent, e.seq, e.fn, e.arg = when, ent, seqn, fn, arg
	s.queue.push(e)
}

// armOwned (re)schedules a caller-owned event (Timer/Ticker/Relay) under
// the key (when, ent, seq). Pending or inside its own callback it is still
// at a heap slot, so it is re-keyed and sifted from there (eventHeap.fix);
// otherwise it is pushed afresh. The event's callback survives firing, so
// one Event serves its owner's whole lifetime without allocation.
func (s *Simulator) armOwned(e *Event, when Time, ent, seq uint64) {
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", e.label(), when, s.now))
	}
	e.when, e.ent, e.seq = when, ent, seq
	e.firing = false
	if e.idx >= 0 {
		s.queue.fix(int(e.idx))
		return
	}
	s.queue.push(e)
}

func (s *Simulator) rearmOwned(e *Event, when Time) { s.armOwned(e, when, 0, s.Reserve()) }

// cancelOwned removes a pending owned event without clearing its fn. Inside
// the event's own callback there is nothing pending to cancel: step removes
// the event when the callback returns without having re-armed it.
func (s *Simulator) cancelOwned(e *Event) {
	if e.idx < 0 || e.firing {
		return
	}
	s.queue.remove(int(e.idx))
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op, so callers may cancel unconditionally.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.idx < 0 {
		return
	}
	s.queue.remove(int(e.idx))
	e.fn, e.arg = nil, nil
}

// Stop makes Run/RunUntil return after the currently executing event.
func (s *Simulator) Stop() { s.stopped = true }

// step executes the earliest event. It reports false when the queue is empty.
func (s *Simulator) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0]
	if e.when < s.now {
		panic("sim: time went backwards")
	}
	s.now = e.when
	s.curEnt, s.curSeq = e.ent, e.seq
	s.processed++
	if e.owned {
		// The event keeps its heap slot while its callback runs, so the
		// owner re-arming this very event costs one sift from that slot
		// instead of a removal and a push.
		e.firing = true
		e.fn(e.arg)
		if e.firing {
			e.firing = false
			s.queue.remove(int(e.idx))
		}
		return true
	}
	s.queue.remove(0)
	fn, arg := e.fn, e.arg
	e.fn, e.arg = nil, nil
	fn(arg)
	if e.pooled && len(s.free) < maxFreeEvents {
		s.evPuts++
		s.free = append(s.free, e)
	}
	return true
}

// Reserve implements Clock: on one loop every key has ordinal 0.
func (s *Simulator) Reserve() uint64 {
	n := s.nextSeq
	s.nextSeq++
	return n
}

// Passed implements Clock.
func (s *Simulator) Passed(when Time, seq uint64) bool { return s.passed(when, 0, seq) }

// passed reports whether (when, ent, seq) orders below the running key.
func (s *Simulator) passed(when Time, ent, seq uint64) bool {
	if when != s.now {
		return when < s.now
	}
	return ent < s.curEnt || ent == s.curEnt && seq < s.curSeq
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
	s.curEnt, s.curSeq = idleKey, idleKey
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it is later than the last event executed).
func (s *Simulator) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		if len(s.queue) == 0 || s.queue[0].when > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	s.curEnt, s.curSeq = idleKey, idleKey
}

// RunFor advances the clock by d, executing everything due in the window.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// runWindow executes queued events up to limit — strictly below it when
// inclusive is false, through it when true — then parks the clock at
// limit. It is the shard-side worker for World's conservative windows;
// unlike RunUntil it ignores Stop, because only the World may end a
// sharded run.
func (s *Simulator) runWindow(limit Time, inclusive bool) {
	for len(s.queue) > 0 {
		top := s.queue[0].when
		if top > limit || (!inclusive && top == limit) {
			break
		}
		s.step()
	}
	if s.now < limit {
		s.now = limit
	}
	s.curEnt, s.curSeq = idleKey, idleKey
}

// The bare Simulator is also the trivial sharded world: every entity
// shares its single event loop and random stream, and SendTo degenerates
// to a local pooled push. This keeps the direct-simulator call sites (unit
// tests, examples, single-shard runs) byte-for-byte identical to the
// pre-sharding engine.

// Derive returns the simulator itself: on a single loop all entities share
// one identity and one random stream.
func (s *Simulator) Derive(name string) Clock { return s }

// SendTo schedules a pooled event onto dst's loop; on a bare Simulator
// src and dst always share the loop.
func (s *Simulator) SendTo(dst Clock, when Time, name string, fn func(any), arg any) {
	s.ScheduleArg(when, name, fn, arg)
}

// HostClock implements Fabric: every group maps to the single loop.
func (s *Simulator) HostClock(group int, name string) Clock { return s }

func (s *Simulator) loop() (*Simulator, int) { return s, 0 }
func (s *Simulator) world() *World           { return nil }
func (s *Simulator) entity() uint64          { return 0 }
