package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is the scheduling surface every simulated entity (host, link,
// protocol stack, application) programs against. A Clock is bound to one
// event loop: the whole-simulation loop of a bare *Simulator, or one shard
// of a *World. Entities never touch the loop directly, which is what lets
// the same stack code run single-threaded or sharded.
//
// The interface has unexported methods on purpose: only the sim package
// implements it (*Simulator and the per-entity clocks a World issues), so
// the loop internals — owned-event re-arming, cross-shard posting — stay
// inside the package.
type Clock interface {
	// Now reports the current virtual time of the clock's event loop.
	Now() Time
	// Rand is the clock's deterministic random stream. A bare Simulator
	// has one shared stream; a World gives every entity its own, so draws
	// do not depend on how entities interleave across shards.
	Rand() *rand.Rand
	// Schedule runs fn at absolute virtual time when (see Simulator.Schedule).
	Schedule(when Time, name string, fn func()) *Event
	// After runs fn d after the current time.
	After(d time.Duration, name string, fn func()) *Event
	// ScheduleArg is the allocation-free Schedule variant (see
	// Simulator.ScheduleArg).
	ScheduleArg(when Time, name string, fn func(any), arg any)
	// AfterArg is ScheduleArg relative to the current time.
	AfterArg(d time.Duration, name string, fn func(any), arg any)
	// Cancel removes a pending event scheduled through this clock.
	Cancel(e *Event)
	// SendTo schedules a pooled event onto dst's event loop, ordered by
	// THIS clock's identity. It is the one legal way to schedule a single
	// event for an entity that may live on another shard (an ordered stream
	// of them, a netem link's packets, goes through a Relay); when src and
	// dst share a loop it degenerates to ScheduleArg. The destination
	// timestamp must be at least one cross-shard lookahead in the future.
	SendTo(dst Clock, when Time, name string, fn func(any), arg any)
	// Derive creates a sibling clock on the same event loop with its own
	// identity and random stream — links derive theirs from the source
	// node's clock. On a bare Simulator it returns the simulator itself.
	// name labels the call site only: no clock keeps it.
	Derive(name string) Clock
	// Reserve draws the ordering sequence the clock's next event would get
	// and schedules nothing: the caller owns the key (when, this clock,
	// seq) and either asks Passed about it or hands it to a Relay.
	Reserve() uint64
	// Passed reports whether an event of this clock keyed (when, seq)
	// would have fired by now: the key orders below the event now running,
	// or no event is running (between runs, inside a World's timeline
	// entries) and when is not in the future. Keys decide, not pop order:
	// the answer is the same at any shard count.
	Passed(when Time, seq uint64) bool

	rearmOwned(e *Event, when Time)
	cancelOwned(e *Event)
	loop() (*Simulator, int)
	world() *World
	entity() uint64
}

// Fabric hands out per-entity clocks during topology construction. Hosts
// in the same group share a shard; the fabric maps groups to shards. A
// bare *Simulator is the trivial fabric (everything on one loop), so
// existing single-simulator call sites build unchanged.
type Fabric interface {
	// HostClock returns the clock for a host in the given placement
	// group. Groups are stable topology-level labels; the fabric decides
	// how they fold onto shards. As with Derive, name is not kept.
	HostClock(group int, name string) Clock
}

// Runner drives a whole simulation from the outside: the scenario engine
// and workloads only ever need this view. Both *Simulator and *World
// implement it.
type Runner interface {
	Fabric
	// Now reports the committed virtual time: every event at or before it
	// has executed.
	Now() Time
	// RunUntil executes events with timestamps <= deadline, then advances
	// the clock to deadline.
	RunUntil(deadline Time)
	// RunFor advances the clock by d.
	RunFor(d time.Duration)
	// Processed counts events executed since construction.
	Processed() uint64
}

// WorldOf reports the sharded world a clock belongs to, or nil for a bare
// *Simulator. netem uses it to register cross-shard link crossings.
func WorldOf(c Clock) *World { return c.world() }

// ShardIndex reports which shard's event loop a clock schedules on (0 on
// a bare *Simulator). The metrics layer uses it to hand each host's
// stack the storage slot its shard owns, keeping every metric slot
// single-writer.
func ShardIndex(c Clock) int {
	_, sh := c.loop()
	return sh
}

// EventCount reports how many events c's loop has executed. It advances
// once as each event starts, and neither between runs nor in a World's
// timeline entries, so two reads that agree were made inside one event or
// with no event run between them. Reading it reserves no key and draws no
// randomness.
func EventCount(c Clock) uint64 {
	s, _ := c.loop()
	return s.processed
}

// splitmix64 is the SplitMix64 mixer — cheap, full-period, and good
// enough to decorrelate per-entity seeds derived from one run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// entitySeed derives entity ent's RNG seed from the run seed. Ordinals
// are assigned in build order, which does not depend on the shard count,
// so the per-entity streams are identical at any sharding.
func entitySeed(seed int64, ent uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) + ent))
}

// entityClock is the per-entity Clock a World issues. Events it schedules
// are ordered by (when, ent, seq): ent is the entity's build ordinal and
// seq its private counter, so the total event order — and therefore every
// simulated result — is independent of how entities fold onto shards.
type entityClock struct {
	w     *World
	sh    *Simulator
	shard int
	ent   uint64
	seq   uint64
	src   lazySource // the stream itself; no register until draw 274 (rng.go)
	rng   *rand.Rand // wraps src; created by the first Rand call
}

func (c *entityClock) next() uint64 {
	n := c.seq
	c.seq++
	return n
}

func (c *entityClock) Now() Time { return c.sh.now }

// Rand wraps the entity's stream on first use; the 48-byte wrapper is all
// a clock that draws allocates until its 274th draw (lazySource). The seed
// depends only on the run seed and the entity ordinal, so when the first
// draw happens does not change what it returns.
func (c *entityClock) Rand() *rand.Rand {
	if c.rng == nil {
		c.src.Seed(entitySeed(c.w.seed, c.ent))
		c.rng = rand.New(&c.src)
	}
	return c.rng
}

func (c *entityClock) Schedule(when Time, name string, fn func()) *Event {
	if when < c.sh.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, when, c.sh.now))
	}
	e := &Event{when: when, ent: c.ent, seq: c.next(), fn: callFunc, arg: fn}
	c.sh.queue.push(e)
	return e
}

func (c *entityClock) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.Schedule(c.sh.now.Add(d), name, fn)
}

func (c *entityClock) ScheduleArg(when Time, name string, fn func(any), arg any) {
	c.sh.scheduleArgKeyed(when, c.ent, c.next(), name, fn, arg)
}

func (c *entityClock) AfterArg(d time.Duration, name string, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	c.ScheduleArg(c.sh.now.Add(d), name, fn, arg)
}

func (c *entityClock) Cancel(e *Event) { c.sh.Cancel(e) }

func (c *entityClock) SendTo(dst Clock, when Time, name string, fn func(any), arg any) {
	_, dshard := dst.loop()
	if dshard == c.shard {
		c.sh.scheduleArgKeyed(when, c.ent, c.next(), name, fn, arg)
		return
	}
	c.w.post(dshard, crossMsg{when: when, ent: c.ent, seq: c.next(), name: name, fn: fn, arg: arg})
}

func (c *entityClock) Derive(string) Clock { return c.w.deriveClock(c.shard) }

func (c *entityClock) Reserve() uint64 { return c.next() }

func (c *entityClock) Passed(when Time, seq uint64) bool { return c.sh.passed(when, c.ent, seq) }

func (c *entityClock) rearmOwned(e *Event, when Time) { c.sh.armOwned(e, when, c.ent, c.next()) }
func (c *entityClock) cancelOwned(e *Event)           { c.sh.cancelOwned(e) }
func (c *entityClock) loop() (*Simulator, int)        { return c.sh, c.shard }
func (c *entityClock) world() *World                  { return c.w }
func (c *entityClock) entity() uint64                 { return c.ent }
