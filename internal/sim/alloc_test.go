package sim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestScheduleArgAllocFree pins the event free list: pooled events are
// recycled after firing, so a steady stream of ScheduleArg events costs
// no heap allocation once warm.
func TestScheduleArgAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := New(1)
	n := 0
	fn := func(any) { n++ }
	tick := func() {
		s.ScheduleArg(s.Now().Add(time.Microsecond), "tick", fn, nil)
		s.RunFor(time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		tick()
	}
	avg := testing.AllocsPerRun(2000, tick)
	if n < 64 {
		t.Fatal("events did not fire")
	}
	if avg > 0.05 {
		t.Fatalf("pooled event schedule/fire allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTimerResetAllocFree pins the owned-event re-arm path: a Timer reuses
// one Event for its whole lifetime, so Reset/fire cycles do not allocate
// (the subflow RTO and pacing timers run this path per segment).
func TestTimerResetAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	s := New(1)
	fired := 0
	tm := NewTimer(s, "t", func() { fired++ })
	cycle := func() {
		tm.Reset(time.Microsecond)
		tm.Reset(2 * time.Microsecond) // re-arm while pending (eventHeap.fix path)
		s.RunFor(time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	if fired < 16 {
		t.Fatal("timer did not fire")
	}
	if avg > 0.05 {
		t.Fatalf("timer reset/fire allocates %.2f allocs/op, want 0", avg)
	}
}

// TestScheduleArgOrdering checks pooled events share the same global FIFO
// tie-break as classic events: equal timestamps fire in schedule order.
func TestScheduleArgOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(10, "a", func() { got = append(got, 1) })
	s.ScheduleArg(10, "b", func(any) { got = append(got, 2) }, nil)
	s.Schedule(10, "c", func() { got = append(got, 3) })
	s.ScheduleArg(5, "d", func(any) { got = append(got, 0) }, nil)
	s.Run()
	for i, v := range got {
		if i != v {
			t.Fatalf("fire order %v, want [0 1 2 3]", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
}

// TestScheduleArgPassesArg checks the per-event state pointer round-trips.
func TestScheduleArgPassesArg(t *testing.T) {
	s := New(1)
	type box struct{ v int }
	b := &box{7}
	var seen *box
	s.ScheduleArg(1, "x", func(a any) { seen = a.(*box) }, b)
	s.Run()
	if seen != b {
		t.Fatal("arg did not round-trip through the pooled event")
	}
}

// TestTimerStopWhilePending re-checks Stop/Armed semantics on the
// owned-event implementation.
func TestTimerStopWhilePending(t *testing.T) {
	s := New(1)
	fired := false
	tm := NewTimer(s, "t", func() { fired = true })
	tm.Reset(time.Millisecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer armed after Stop")
	}
	s.RunFor(10 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(time.Millisecond)
	s.RunFor(10 * time.Millisecond)
	if !fired {
		t.Fatal("re-armed timer did not fire")
	}
}

// embedded is an owner that holds its timer by value, the way tcp.Subflow
// does; String is what the scheduling panic reports it as.
type embedded struct {
	tm    Timer
	fired int
}

func (e *embedded) String() string { return "owner-7" }

func fireEmbedded(x any) { x.(*embedded).fired++ }

// TestTimerInitAllocFree pins the in-struct timer: binding a Timer that
// lies in its owner to a package-level callback allocates nothing — no
// Timer object, no method closure — and it fires like one from NewTimer.
func TestTimerInitAllocFree(t *testing.T) {
	s := New(1)
	o := &embedded{}
	bind := func() { o.tm.Init(s, "t", fireEmbedded, o) }
	bind()
	o.tm.Reset(time.Microsecond)
	o.tm.Reset(2 * time.Microsecond)
	s.RunFor(time.Millisecond)
	if o.fired != 1 || o.tm.Armed() {
		t.Fatalf("fired %d times, armed %v; want once and idle", o.fired, o.tm.Armed())
	}
	if testutil.RaceEnabled {
		return // alloc counts differ under -race instrumentation
	}
	if avg := testing.AllocsPerRun(1000, bind); avg != 0 {
		t.Fatalf("Timer.Init allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTimerPastPanicNamesOwner checks that a timer with a constant name
// still says whose it is when arming it in the past panics.
func TestTimerPastPanicNamesOwner(t *testing.T) {
	for _, shards := range []int{0, 1} { // bare simulator, entity clock
		var c Clock = New(1)
		run := func() { c.(*Simulator).RunFor(time.Millisecond) }
		if shards > 0 {
			w := NewWorld(1, shards)
			c, run = w.HostClock(0, "h"), func() { w.RunFor(time.Millisecond) }
		}
		o := &embedded{}
		o.tm.Init(c, "tcp.rto", fireEmbedded, o)
		run()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"tcp.rto owner-7"`) {
					t.Fatalf("shards=%d: panic %q does not name the timer and its owner", shards, msg)
				}
			}()
			o.tm.ResetAt(0)
		}()
	}
}

// TestGlobalEventOrderAndSlabs checks the global-event queue on the
// shared heap code: time order, schedule order among equal times, across
// more events than one slab holds, with nothing allocated per event.
func TestGlobalEventOrderAndSlabs(t *testing.T) {
	const n = 3*globalSlab + 17
	w := NewWorld(1, 1)
	var got []int
	ids := make([]int, n) // each event's state: a pointer into one slab
	for i := range ids {
		ids[i] = i
	}
	record := func(id any) { got = append(got, *id.(*int)) }
	schedule := func() {
		for i := 0; i < n; i++ {
			// Times descend in blocks of eight; within a block they tie.
			w.ScheduleGlobal(w.Now()+Time((n-i)/8+1), "g", record, &ids[i])
		}
	}
	schedule()
	w.RunFor(time.Second)
	if len(got) != n || w.RuntimeStats().Globals != n {
		t.Fatalf("ran %d of %d globals", len(got), n)
	}
	for k := 1; k < n; k++ {
		a, b := got[k-1], got[k]
		if ta, tb := (n-a)/8, (n-b)/8; ta > tb || ta == tb && a > b {
			t.Fatalf("global %d ran before global %d", a, b)
		}
	}
	if testutil.RaceEnabled {
		return // alloc counts differ under -race instrumentation
	}
	got = make([]int, 0, 2*n)
	avg := testing.AllocsPerRun(1, func() {
		got = got[:0]
		schedule()
		w.RunFor(time.Second)
	})
	if slabs := float64(n/globalSlab + 1); avg > slabs+2 { // slabs, heap growth
		t.Fatalf("%d globals cost %.0f allocations, want about %.0f slabs", n, avg, slabs)
	}
}
