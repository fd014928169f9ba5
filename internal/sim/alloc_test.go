package sim

import (
	"strings"
	"testing"
	"time"
	"unsafe"

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
	bind := func() { o.tm.Init(s, fireEmbedded, o) }
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

// TestTimerPastPanicNamesOwner checks that a timer, which keeps no name,
// still says what it runs and whose it is when arming it in the past
// panics: the callback's symbol and the owner's String.
func TestTimerPastPanicNamesOwner(t *testing.T) {
	for _, shards := range []int{0, 1} { // bare simulator, entity clock
		var c Clock = New(1)
		run := func() { c.(*Simulator).RunFor(time.Millisecond) }
		if shards > 0 {
			w := NewWorld(1, shards)
			c, run = w.HostClock(0, "h"), func() { w.RunFor(time.Millisecond) }
		}
		o := &embedded{}
		o.tm.Init(c, fireEmbedded, o)
		run()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"repro/internal/sim.fireEmbedded owner-7"`) {
					t.Fatalf("shards=%d: panic %q does not name the callback and its owner", shards, msg)
				}
			}()
			o.tm.ResetAt(0)
		}()
	}
}

// TestEventSize pins the Event at 56 bytes: every tcp.Subflow embeds two
// (its timers), so each byte here is two on every subflow. The layout is
// when, ent, seq, fn, arg, an int32 heap index and three flags.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 56 {
		t.Fatalf("Event is %d bytes, over its pinned 56", sz)
	}
	if sz := unsafe.Sizeof(Timer{}); sz > 72 {
		t.Fatalf("Timer is %d bytes, over its pinned 72", sz)
	}
}

// indexLog is a test timeline that records which entries fired.
type indexLog struct {
	at  []Time
	got []int
}

func (l *indexLog) Len() int          { return len(l.at) }
func (l *indexLog) At(k int) Time     { return l.at[k] }
func (l *indexLog) Name(k int) string { return "entry" }
func (l *indexLog) Fire(k int)        { l.got = append(l.got, k) }

// TestTimelineWalkAllocatesNothing walks timelines of 100 and 100 000
// entries, eight to an instant: every entry fires once and in index order,
// is counted in Globals and Processed, and neither Walk nor the walk
// allocates, whatever the length.
func TestTimelineWalkAllocatesNothing(t *testing.T) {
	for _, n := range []int{100, 100000} {
		w := NewWorld(1, 1)
		tl := &indexLog{at: make([]Time, n), got: make([]int, 0, n)}
		walk := func() {
			for k := range tl.at {
				tl.at[k] = w.Now() + Time(k/8+1)
			}
			tl.got = tl.got[:0]
			w.Walk(tl)
			w.RunFor(time.Second)
		}
		walk()
		if st := w.RuntimeStats(); len(tl.got) != n || st.Globals != uint64(n) || w.Processed() != uint64(n) {
			t.Fatalf("n=%d: fired %d entries, counted %d globals and %d events", n, len(tl.got), st.Globals, w.Processed())
		}
		for k, g := range tl.got {
			if g != k {
				t.Fatalf("n=%d: entry %d fired %dth", n, g, k)
			}
		}
		if testutil.RaceEnabled {
			continue // alloc counts differ under -race instrumentation
		}
		if avg := testing.AllocsPerRun(3, walk); avg != 0 {
			t.Fatalf("n=%d: walking the timeline allocated %.0f objects", n, avg)
		}
	}
}
