package sim

import (
	"fmt"
	"sync"
	"time"
)

// World is the sharded simulation driver: N independent event loops
// (shards), each owning the entities of one or more host groups, advanced
// in lockstep windows bounded by the conservative lookahead — the smallest
// propagation delay of any link that crosses shards.
//
// Within a window [t0, t1) every shard runs its own queue on its own
// goroutine. A message sent at time t travels a cross-shard link with
// delay >= lookahead, so it arrives at t + delay >= t0 + lookahead >= t1:
// always in a future window, never in the one being executed. Cross-shard
// sends are therefore posted to a per-destination mailbox and folded into
// the destination queue at the next window barrier, with the (when, ent,
// seq) ordering key computed on the sending side. Because that key is a
// total order derived from build-order entity ordinals — not from shard
// layout — a World run is bit-identical to a single-shard run of the same
// seed, at any shard count.
type World struct {
	seed    int64
	shards  []*Simulator
	inMu    []sync.Mutex
	inbox   [][]crossMsg
	spare   [][]crossMsg
	nextEnt uint64
	used    map[int]bool // shards that own at least one entity

	// lookahead is the min propagation delay over cross-shard links;
	// 0 means no crossings (shards are independent or there is one shard).
	lookahead Time

	now      Time
	running  bool
	buildErr error

	// tl is the world's only global work, read in place: cursor is the
	// entry to fire next and next its time (maxTime when there is none);
	// gdone counts the entries fired.
	tl     Timeline
	cursor int
	next   Time
	gdone  uint64

	// Execution counters (see RuntimeStats): how the span was carved into
	// windows, how often the shards synchronised, and how much of each
	// barrier each shard spent waiting for the slowest one. All are
	// touched only on the controller goroutine except crossSends (under
	// the destination mailbox lock) and busyScratch (each shard writes
	// its own index between barriers).
	windowsInterior uint64
	windowsBoundary uint64
	windowsIdle     uint64
	barriers        uint64
	crossSends      []uint64 // per destination shard
	timing          bool
	waitNs          []uint64 // per shard, cumulative barrier wait
	busyNs          []uint64 // per shard, cumulative in-window execution
	busyScratch     []int64
}

// crossMsg is a pooled event in flight between shards: the sender computes
// the full ordering key, the receiver replays it through its free list. A
// Relay's hand-off travels the same way but is no event: the receiver calls
// fn(arg) as it drains, and when only bounds the window.
type crossMsg struct {
	when     Time
	ent, seq uint64
	name     string
	fn       func(any)
	arg      any
	hand     bool
}

// maxTime is the idle sentinel for nextEventTime and World.next.
const maxTime = Time(1<<63 - 1)

// NewWorld creates a sharded world for the given seed. nshards < 1 is
// treated as 1. Shard counts larger than the number of populated groups
// are legal; Finalize rejects layouts where more than one shard was
// requested but the topology folded onto a single shard.
func NewWorld(seed int64, nshards int) *World {
	if nshards < 1 {
		nshards = 1
	}
	w := &World{
		seed:       seed,
		shards:     make([]*Simulator, nshards),
		inMu:       make([]sync.Mutex, nshards),
		inbox:      make([][]crossMsg, nshards),
		spare:      make([][]crossMsg, nshards),
		used:       make(map[int]bool),
		crossSends: make([]uint64, nshards),
		next:       maxTime,
	}
	for i := range w.shards {
		w.shards[i] = New(entitySeed(seed, uint64(i)^0xD1B54A32D192ED03))
	}
	return w
}

// Now reports the committed global horizon: every event at or before it
// has executed on every shard.
func (w *World) Now() Time { return w.now }

// Processed counts events executed across all shards plus timeline entries.
func (w *World) Processed() uint64 {
	n := w.gdone
	for _, s := range w.shards {
		n += s.processed
	}
	return n
}

// HostClock implements Fabric: hosts in group g land on shard g mod N, so
// distinct groups spread across shards while the assignment stays stable
// for any N. Clocks must be created while the world is paused (topology
// build time or between runs).
func (w *World) HostClock(group int, name string) Clock {
	n := len(w.shards)
	shard := ((group % n) + n) % n
	return w.deriveClock(shard)
}

func (w *World) deriveClock(shard int) *entityClock {
	if w.running {
		panic("sim: clocks must be created while the world is paused")
	}
	w.nextEnt++
	w.used[shard] = true
	return &entityClock{
		w:     w,
		sh:    w.shards[shard],
		shard: shard,
		ent:   w.nextEnt,
	}
}

// Crossing records a link from one clock's shard to another's, carrying
// the link's propagation delay. netem calls it for every link at build
// time; crossings within one shard are ignored. A zero-delay crossing has
// no lookahead and cannot be simulated conservatively, so it poisons the
// world and surfaces from Finalize.
func (w *World) Crossing(name string, from, to Clock, delay time.Duration) {
	_, fs := from.loop()
	_, ts := to.loop()
	if fs == ts {
		return
	}
	if delay <= 0 {
		if w.buildErr == nil {
			w.buildErr = fmt.Errorf("sim: link %q crosses shards with zero propagation delay", name)
		}
		return
	}
	if w.lookahead == 0 || Time(delay) < w.lookahead {
		w.lookahead = Time(delay)
	}
}

// Finalize validates the built topology against the shard layout. It
// returns an error when more than one shard was requested but the
// topology cannot be partitioned (every entity landed on one shard), or
// when a cross-shard link has zero delay. Call it after topology
// construction and before the first Run.
func (w *World) Finalize() error {
	if w.buildErr != nil {
		return w.buildErr
	}
	if len(w.shards) > 1 && len(w.used) < 2 {
		return fmt.Errorf("sim: topology cannot be partitioned across %d shards (all entities share one shard)", len(w.shards))
	}
	return nil
}

// Timeline is a World's global work: entries that may touch state owned by
// any shard (scenario interventions: loss steps, interface flaps). The World
// fires entry k at At(k) on the controller goroutine with every shard
// parked, after every shard event at or before At(k). Entries fire in index
// order, so At must not decrease with k; equal times fire in index order.
// The World reads the timeline in place through a cursor and copies nothing.
type Timeline interface {
	Len() int
	At(k int) Time
	Name(k int) string
	Fire(k int)
}

// Walk makes tl the timeline the world's runs fire. The world reads no entry
// before its next run, so whoever arms a timeline may put off ordering it
// until that first read. An entry already in the past panics, naming
// itself, as does a second timeline while the first has entries left.
func (w *World) Walk(tl Timeline) {
	if w.tl != nil {
		panic("sim: walking a second timeline before the first is done")
	}
	w.tl, w.cursor = tl, 0
}

// advance loads the time of the entry at the cursor into next, or drops
// the timeline when it is done. Loading the same entry again is harmless.
func (w *World) advance() {
	if w.cursor >= w.tl.Len() {
		w.tl, w.next = nil, maxTime
		return
	}
	w.next = w.tl.At(w.cursor)
	if w.next < w.now {
		panic(fmt.Sprintf("sim: timeline entry %q at %v before now %v", w.tl.Name(w.cursor), w.next, w.now))
	}
}

// post enqueues a cross-shard message for the destination shard. It is the
// only World state touched from shard goroutines, hence the mutex.
func (w *World) post(shard int, m crossMsg) {
	w.inMu[shard].Lock()
	w.crossSends[shard]++
	w.inbox[shard] = append(w.inbox[shard], m)
	w.inMu[shard].Unlock()
}

// drain folds shard i's mailbox into its event queue. It runs on shard
// i's goroutine at the start of a window, when no sender is active, but
// takes the mailbox lock anyway to pair with post's barrier.
func (w *World) drain(i int) {
	w.inMu[i].Lock()
	msgs := w.inbox[i]
	w.inbox[i] = w.spare[i][:0]
	w.inMu[i].Unlock()
	sh := w.shards[i]
	for k := range msgs {
		m := &msgs[k]
		if m.when < sh.now {
			panic(fmt.Sprintf("sim: cross-shard lookahead violated: %q at %v arrived with shard at %v", m.name, m.when, sh.now))
		}
		if m.hand {
			m.fn(m.arg)
		} else {
			sh.scheduleArgKeyed(m.when, m.ent, m.seq, m.name, m.fn, m.arg)
		}
		*m = crossMsg{}
	}
	w.spare[i] = msgs[:0]
}

// phase drains mailboxes and runs every shard up to limit (exclusive or
// inclusive), one goroutine per shard. Panics on shard goroutines are
// captured and re-raised on the controller.
func (w *World) phase(limit Time, inclusive bool) {
	if len(w.shards) == 1 {
		w.drain(0)
		w.shards[0].runWindow(limit, inclusive)
		return
	}
	w.barriers++
	timing := w.timing
	var t0 time.Time
	if timing {
		if w.busyScratch == nil {
			w.busyScratch = make([]int64, len(w.shards))
			w.waitNs = make([]uint64, len(w.shards))
			w.busyNs = make([]uint64, len(w.shards))
		}
		t0 = time.Now()
	}
	var wg sync.WaitGroup
	var pmu sync.Mutex
	var pval any
	for i := range w.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if pval == nil {
						pval = r
					}
					pmu.Unlock()
				}
			}()
			var b0 time.Time
			if timing {
				b0 = time.Now()
			}
			w.drain(i)
			w.shards[i].runWindow(limit, inclusive)
			if timing {
				w.busyScratch[i] = time.Since(b0).Nanoseconds()
			}
		}(i)
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
	if timing {
		span := time.Since(t0).Nanoseconds()
		for i := range w.shards {
			busy := w.busyScratch[i]
			w.busyNs[i] += uint64(busy)
			if d := span - busy; d > 0 {
				w.waitNs[i] += uint64(d)
			}
		}
	}
}

// nextEventTime reports the earliest pending event time across every
// shard queue and every mailbox, or maxTime when the world is idle. It
// runs on the controller with all shards parked, so peeking the heaps is
// safe; the mailbox locks pair with post's barrier.
func (w *World) nextEventTime() Time {
	next := maxTime
	for i, sh := range w.shards {
		if len(sh.queue) > 0 && sh.queue[0].when < next {
			next = sh.queue[0].when
		}
		w.inMu[i].Lock()
		for k := range w.inbox[i] {
			if w.inbox[i][k].when < next {
				next = w.inbox[i][k].when
			}
		}
		w.inMu[i].Unlock()
	}
	return next
}

// RunUntil advances the world to deadline. The loop carves the span into
// conservative windows; the stretch ending at a timeline entry or at the
// deadline itself runs in two phases — strictly below the boundary, then
// a barrier to exchange boundary messages, then inclusively through it —
// so that events exactly at an inclusive boundary still see every
// cross-shard message timestamped at it.
//
// A window may safely extend to E + lookahead, where E is the earliest
// pending event anywhere: no shard executes anything before E, so no
// cross-shard message is sent before E, so none arrives before
// E + lookahead. Window placement therefore tracks where the events are —
// sparse stretches take one window each instead of one per lookahead,
// and a fully idle world jumps straight to the boundary. Windowing never
// affects results (events execute in (when, ent, seq) order regardless
// of how the span is carved), only how often the shards synchronise.
func (w *World) RunUntil(deadline Time) {
	if deadline < w.now {
		return
	}
	w.running = true
	defer func() { w.running = false }()
	if w.tl != nil {
		w.advance()
	}
	for {
		limit := deadline
		if w.next < limit {
			limit = w.next
		}
		idle := false
		if len(w.shards) > 1 {
			next := w.nextEventTime()
			if next < w.now {
				next = w.now
			}
			if w.lookahead > 0 && next < limit && limit-next > w.lookahead {
				// Interior window: half-open [now, next+lookahead).
				// Arrivals land at >= next+lookahead, in a later window.
				t1 := next + w.lookahead
				w.windowsInterior++
				w.phase(t1, false)
				w.now = t1
				continue
			}
			idle = next > limit
		}
		// Boundary stretch ending at limit (a timeline entry or the
		// deadline): run below it, then through it inclusively. Messages
		// posted below limit arrive at >= limit (the interior loop above
		// guarantees limit-next <= lookahead here) and are drained before
		// the inclusive pass; messages posted at exactly limit arrive at
		// > limit and stay queued for the next call. When nothing is
		// pending at or before limit, just park the shard clocks — the
		// two phases would be empty.
		if idle {
			w.windowsIdle++
			for _, sh := range w.shards {
				if sh.now < limit {
					sh.now = limit
				}
			}
		} else {
			w.windowsBoundary++
			w.phase(limit, false)
			w.phase(limit, true)
		}
		w.now = limit
		for w.tl != nil && w.next <= limit {
			w.cursor++
			w.gdone++
			w.tl.Fire(w.cursor - 1)
			w.advance()
		}
		if limit >= deadline {
			break
		}
	}
}

// RunFor advances the world by d.
func (w *World) RunFor(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.RunUntil(w.now.Add(d))
}

// RuntimeStats snapshots the world's execution counters: window carving,
// barrier synchronisation, per-shard event and cross-shard-send counts,
// per-shard barrier timing (zero unless EnableBarrierTiming), and the
// pooled-event free-list traffic of every shard loop. Call it with the
// world parked (between RunUntil calls).
type RuntimeStats struct {
	// Window carving of the simulated span (how RunUntil synchronised,
	// not what the model did): interior lookahead stretches, boundary
	// two-phase windows, and idle jumps.
	WindowsInterior uint64
	WindowsBoundary uint64
	WindowsIdle     uint64
	// Barriers counts shard synchronisation points (phase executions on
	// a multi-shard world).
	Barriers uint64
	// Globals counts fired timeline (all-shards-parked) entries.
	Globals uint64
	// ShardEvents is the per-shard executed event count.
	ShardEvents []uint64
	// CrossSends is the count of cross-shard messages by DESTINATION
	// shard.
	CrossSends []uint64
	// BarrierWaitNs and BusyNs split each shard's wall-clock time inside
	// barriers into waiting-for-the-slowest-shard and executing-events.
	// Populated only when EnableBarrierTiming was on.
	BarrierWaitNs []uint64
	BusyNs        []uint64
	// Pooled-event free-list traffic per shard loop.
	EventPoolGets []uint64
	EventPoolPuts []uint64
	EventPoolNews []uint64
}

// RuntimeStats implements the snapshot described on the type.
func (w *World) RuntimeStats() RuntimeStats {
	n := len(w.shards)
	st := RuntimeStats{
		WindowsInterior: w.windowsInterior,
		WindowsBoundary: w.windowsBoundary,
		WindowsIdle:     w.windowsIdle,
		Barriers:        w.barriers,
		Globals:         w.gdone,
		ShardEvents:     make([]uint64, n),
		CrossSends:      append([]uint64(nil), w.crossSends...),
		EventPoolGets:   make([]uint64, n),
		EventPoolPuts:   make([]uint64, n),
		EventPoolNews:   make([]uint64, n),
	}
	for i, sh := range w.shards {
		st.ShardEvents[i] = sh.processed
		st.EventPoolGets[i], st.EventPoolPuts[i], st.EventPoolNews[i] = sh.EventPoolStats()
	}
	if w.waitNs != nil {
		st.BarrierWaitNs = append([]uint64(nil), w.waitNs...)
		st.BusyNs = append([]uint64(nil), w.busyNs...)
	}
	return st
}

// EnableBarrierTiming turns on per-shard wall-clock measurement of every
// barrier (two time.Now calls per shard per window). Off by default so
// untimed runs pay nothing; metrics-enabled runs switch it on.
func (w *World) EnableBarrierTiming(on bool) { w.timing = on }
