package sim

// The container/heap event queue the simulator ran on before the concrete
// 4-ary heap, kept as the referee: TestEventHeapMatchesContainerHeap
// drives both with one random push/pop/fix/remove stream and requires the
// same pop order. It is also the queue of refLoop, the pop-then-push
// dispatch the simulator had before a firing owned event kept its heap
// slot; TestOwnedDispatchMatchesPopThenPush runs one random timer program
// on both loops.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

type refEventHeap []*Event

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	if h[i].ent != h[j].ent {
		return h[i].ent < h[j].ent
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}
func (h *refEventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = int32(len(*h))
	*h = append(*h, e)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var (
		got  eventHeap
		ref  refEventHeap
		live [][2]*Event // queued events: [0] in got, [1] its twin in ref
		seq  uint64
	)
	// Keys collide on when and ent but never on seq, like the simulator's.
	key := func(e *Event) {
		e.when, e.ent, e.seq = Time(rng.Intn(50)), uint64(rng.Intn(4)), seq
		seq++
	}
	unlive := func(e *Event) {
		for i, p := range live {
			if p[0] == e {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return
			}
		}
		t.Fatalf("event (%d,%d,%d) left the heap but was not queued", e.when, e.ent, e.seq)
	}
	for step := 0; step < 30000; step++ {
		switch op := rng.Intn(12); {
		case op < 4 || len(live) == 0: // push
			a := &Event{idx: -1}
			key(a)
			b := *a
			got.push(a)
			heap.Push(&ref, &b)
			live = append(live, [2]*Event{a, &b})
		case op < 7: // pop
			a, b := got.pop(), heap.Pop(&ref).(*Event)
			if a.when != b.when || a.ent != b.ent || a.seq != b.seq {
				t.Fatalf("step %d: popped (%d,%d,%d), container/heap popped (%d,%d,%d)",
					step, a.when, a.ent, a.seq, b.when, b.ent, b.seq)
			}
			if a.idx != -1 {
				t.Fatalf("step %d: popped event has idx %d, want -1", step, a.idx)
			}
			unlive(a)
		case op < 9: // re-key in place
			p := live[rng.Intn(len(live))]
			key(p[0])
			p[1].when, p[1].ent, p[1].seq = p[0].when, p[0].ent, p[0].seq
			got.fix(int(p[0].idx))
			heap.Fix(&ref, int(p[1].idx))
		case op < 10: // remove
			p := live[rng.Intn(len(live))]
			got.remove(int(p[0].idx))
			heap.Remove(&ref, int(p[1].idx))
			if p[0].idx != -1 {
				t.Fatalf("step %d: removed event has idx %d, want -1", step, p[0].idx)
			}
			unlive(p[0])
		default: // fire: the earliest event keeps its slot while its callback runs
			a, b := got[0], heap.Pop(&ref).(*Event)
			if a.when != b.when || a.ent != b.ent || a.seq != b.seq {
				t.Fatalf("step %d: firing (%d,%d,%d), container/heap popped (%d,%d,%d)",
					step, a.when, a.ent, a.seq, b.when, b.ent, b.seq)
			}
			for k := rng.Intn(3); k > 0; k-- {
				// The callback pushes at its own instant, below and
				// above its own key.
				c := &Event{idx: -1, when: a.when, ent: uint64(rng.Intn(4)), seq: seq}
				seq++
				d := *c
				got.push(c)
				heap.Push(&ref, &d)
				live = append(live, [2]*Event{c, &d})
			}
			if rng.Intn(2) == 0 { // re-armed: one fix from wherever it sits now
				key(a)
				b.when, b.ent, b.seq = a.when, a.ent, a.seq
				got.fix(int(a.idx))
				heap.Push(&ref, b)
			} else { // stopped or left alone: removed afterwards
				got.remove(int(a.idx))
				unlive(a)
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("step %d: %d queued, container/heap has %d", step, len(got), len(ref))
		}
		for i, e := range got {
			if int(e.idx) != i {
				t.Fatalf("step %d: event at position %d has idx %d", step, i, e.idx)
			}
			if i > 0 && eventLess(e, got[(i-1)/heapArity]) {
				t.Fatalf("step %d: position %d orders before its parent", step, i)
			}
		}
	}
	// Drain: the tail of the pop order must agree too.
	for len(ref) > 0 {
		a, b := got.pop(), heap.Pop(&ref).(*Event)
		if a.seq != b.seq {
			t.Fatalf("drain: popped seq %d, container/heap popped %d", a.seq, b.seq)
		}
	}
	if len(got) != 0 {
		t.Fatalf("%d events left after container/heap drained", len(got))
	}
}

// refLoop is a one-shard World's dispatch as it was: pop the earliest event,
// then run it; (re)arming a timer removes it if queued and pushes it.
type refLoop struct {
	q      refEventHeap
	now    Time
	seq    [8]uint64 // per entity ordinal, like entityClock.seq
	timers []*Event
	fire   func(id int)
}

func (r *refLoop) arm(e *Event, ent uint64, d time.Duration) {
	if e.idx >= 0 {
		heap.Remove(&r.q, int(e.idx))
	}
	e.when, e.ent, e.seq = r.now.Add(d), ent, r.seq[ent]
	r.seq[ent]++
	heap.Push(&r.q, e)
}
func (r *refLoop) reset(id int, d time.Duration) { r.arm(r.timers[id], r.timers[id].ent, d) }
func (r *refLoop) stop(id int) {
	if e := r.timers[id]; e.idx >= 0 {
		heap.Remove(&r.q, int(e.idx))
	}
}
func (r *refLoop) armed(id int) bool { return r.timers[id].idx >= 0 }
func (r *refLoop) oneShot(ent uint64, id int) {
	r.arm(&Event{idx: -1, fn: callFunc, arg: func() { r.fire(id) }}, ent, 0)
}
func (r *refLoop) run(until Time) {
	for len(r.q) > 0 && r.q[0].when <= until {
		e := heap.Pop(&r.q).(*Event)
		r.now = e.when
		e.fn(e.arg)
	}
}

// simLoop is the same surface over a real one-shard World.
type simLoop struct {
	w      *World
	clocks []Clock
	timers []*Timer
	fire   func(id int)
}

func (l *simLoop) reset(id int, d time.Duration) { l.timers[id].Reset(d) }
func (l *simLoop) stop(id int)                   { l.timers[id].Stop() }
func (l *simLoop) armed(id int) bool             { return l.timers[id].Armed() }
func (l *simLoop) oneShot(ent uint64, id int) {
	l.clocks[ent-1].After(0, "shot", func() { l.fire(id) })
}

// TestOwnedDispatchMatchesPopThenPush: timers on four entities whose
// callbacks re-arm, stop or leave alone themselves and each other — in any
// order, zero delays included — and schedule one-shots at the running
// instant on lower and higher ordinals. The firing history, with what
// Armed() said inside each callback, must be the pop-then-push loop's.
func TestOwnedDispatchMatchesPopThenPush(t *testing.T) {
	const nTimers, nEnts = 12, 4
	type loop interface {
		reset(id int, d time.Duration)
		stop(id int)
		armed(id int) bool
		oneShot(ent uint64, id int)
	}
	// program returns the callback of timer (or one-shot) id: every choice
	// comes from rng, which both loops consume in the same order as long as
	// they fire the same events.
	program := func(l loop, now func() Time, rng *rand.Rand, log *[]string) func(int) {
		return func(id int) {
			*log = append(*log, fmt.Sprintf("%d #%d armed=%v", now(), id, id < nTimers && l.armed(id)))
			if len(*log) > 20000 {
				return
			}
			for k := rng.Intn(4); k > 0; k-- {
				other := rng.Intn(nTimers)
				if rng.Intn(3) == 0 {
					other = id % nTimers // itself, when id is a timer
				}
				switch rng.Intn(4) {
				case 0:
					l.stop(other)
				case 1:
					l.oneShot(uint64(1+rng.Intn(nEnts)), nTimers+other)
				default:
					l.reset(other, time.Duration(rng.Intn(3))*time.Duration(rng.Intn(40)))
				}
			}
			if keep := rng.Intn(nTimers); !l.armed(keep) { // keeps the program alive
				l.reset(keep, time.Duration(1+rng.Intn(40)))
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		var refLog, simLog []string

		r := &refLoop{}
		r.fire = program(r, func() Time { return r.now }, rand.New(rand.NewSource(seed)), &refLog)
		for id := 0; id < nTimers; id++ {
			id := id
			r.timers = append(r.timers, &Event{idx: -1, ent: uint64(1 + id%nEnts), fn: callFunc, arg: func() { r.fire(id) }})
		}

		l := &simLoop{w: NewWorld(seed, 1)}
		l.fire = program(l, l.w.shards[0].Now, rand.New(rand.NewSource(seed)), &simLog)
		for e := 0; e < nEnts; e++ {
			l.clocks = append(l.clocks, l.w.HostClock(0, "e"))
		}
		for id := 0; id < nTimers; id++ {
			id := id
			l.timers = append(l.timers, NewTimer(l.clocks[id%nEnts], "t", func() { l.fire(id) }))
		}

		for id := 0; id < nTimers; id++ {
			r.reset(id, time.Duration(id))
			l.reset(id, time.Duration(id))
		}
		r.run(Time(time.Second))
		l.w.RunUntil(Time(time.Second))
		if len(refLog) < 1000 {
			t.Fatalf("seed %d: the program died after %d firings", seed, len(refLog))
		}
		if !reflect.DeepEqual(simLog, refLog) {
			for i := range refLog {
				if i >= len(simLog) || simLog[i] != refLog[i] {
					t.Fatalf("seed %d: firing %d differs: got %q, pop-then-push %q", seed, i, append(simLog, "<end>")[i], refLog[i])
				}
			}
			t.Fatalf("seed %d: %d firings, pop-then-push %d", seed, len(simLog), len(refLog))
		}
	}
}
