package sim

import "time"

// Timer is a restartable one-shot timer bound to a Clock, analogous to
// time.Timer but in virtual time. The zero value is not usable; create
// timers with NewTimer, or embed one in its owner and bind it with Init.
//
// A Timer owns one Event for its whole lifetime and re-arms it in place,
// so Reset/Stop never allocate — the retransmission and pacing timers of
// every subflow run on this path.
type Timer struct {
	clock Clock
	ev    Event
}

// NewTimer returns a stopped timer that runs fn when it fires. name labels
// the call site only: no timer keeps it (the scheduling-in-the-past panic
// names fn's symbol instead).
func NewTimer(c Clock, name string, fn func()) *Timer {
	t := &Timer{}
	t.Init(c, callFunc, fn)
	return t
}

// Init binds a Timer embedded in its owner, stopped, to run fn(arg) when
// it fires. With a package-level fn and the owner as arg, a struct that
// holds its timers by value creates them without allocating: no Timer
// object and no bound-method closure. The timer keeps no name: the
// scheduling-in-the-past panic names fn's symbol and prints arg when it is
// a fmt.Stringer, so the owner's identity costs nothing until then.
func (t *Timer) Init(c Clock, fn func(any), arg any) {
	t.clock = c
	t.ev = Event{idx: -1, fn: fn, arg: arg, owned: true}
}

// Clock reports the clock the timer was bound to, so that an owner holding
// its timer by value need not keep the clock a second time.
func (t *Timer) Clock() Clock { return t.clock }

// Reset (re)arms the timer to fire d from now, replacing any pending firing.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.clock.rearmOwned(&t.ev, t.clock.Now().Add(d))
}

// ResetAt (re)arms the timer to fire at absolute time when.
func (t *Timer) ResetAt(when Time) {
	t.clock.rearmOwned(&t.ev, when)
}

// Stop cancels any pending firing.
func (t *Timer) Stop() {
	t.clock.cancelOwned(&t.ev)
}

// Armed reports whether the timer currently has a pending firing. Inside
// the timer's own callback it has none until the callback re-arms it.
func (t *Timer) Armed() bool { return t.ev.idx >= 0 && !t.ev.firing }

// Deadline reports when the timer will fire; valid only if Armed.
func (t *Timer) Deadline() Time {
	if !t.Armed() {
		return -1
	}
	return t.ev.when
}

// Ticker repeatedly invokes a callback at a fixed virtual-time period until
// stopped, analogous to time.Ticker. Like Timer, it owns and re-arms a
// single Event, so steady-state ticking does not allocate.
type Ticker struct {
	clock  Clock
	period time.Duration
	ev     Event
}

// NewTicker starts a ticker whose first tick is one period from now. As
// with NewTimer, name labels the call site only.
func NewTicker(c Clock, period time.Duration, name string, fn func()) *Ticker {
	if period < 0 {
		period = 0
	}
	t := &Ticker{clock: c, period: period}
	t.ev = Event{idx: -1, fn: callFunc, owned: true}
	t.ev.arg = func() {
		// Re-arm before running fn, mirroring the pre-pool behaviour where
		// the next tick was scheduled ahead of the callback.
		t.clock.rearmOwned(&t.ev, t.clock.Now().Add(t.period))
		fn()
	}
	t.clock.rearmOwned(&t.ev, c.Now().Add(period))
	return t
}

// Stop cancels future ticks.
func (t *Ticker) Stop() { t.clock.cancelOwned(&t.ev) }

// Relay is the receiving end of an ordered hand-off from one clock to the
// loop of another (a netem link's packets). The source reserves one key per
// item, in increasing order, and hands the items over; the destination
// keeps them in a FIFO of its own and only the oldest one's key in its event
// queue, on the relay's single owned event.
type Relay struct {
	ent   uint64     // the source clock's ordinal, part of every key
	dst   *Simulator // the loop the event fires on
	cross *World     // set when the source runs on another shard
	shard int        // the destination's shard
	name  string     // labels a cross-shard hand-off's lookahead panic
	ev    Event
}

// Init binds the relay to run fn(arg) on dst's loop each time it fires.
func (r *Relay) Init(src, dst Clock, name string, fn func(any), arg any) {
	r.ent = src.entity()
	r.dst, r.shard = dst.loop()
	if _, sshard := src.loop(); sshard != r.shard {
		r.cross = src.world()
	}
	r.name = name
	r.ev = Event{idx: -1, fn: fn, arg: arg, owned: true}
}

// Hand passes arg to put on the destination's loop, from the source's: at
// once when the two share a loop, otherwise through the cross-shard mailbox,
// drained before the destination runs anything at or after when.
func (r *Relay) Hand(when Time, put func(any), arg any) {
	if r.cross == nil {
		put(arg)
		return
	}
	r.cross.post(r.shard, crossMsg{when: when, name: r.name, fn: put, arg: arg, hand: true})
}

// Arm keys the relay's event (when, source, seq), a key the source reserved;
// the callback arms it again for the next item in line. Destination loop only.
func (r *Relay) Arm(when Time, seq uint64) { r.dst.armOwned(&r.ev, when, r.ent, seq) }
