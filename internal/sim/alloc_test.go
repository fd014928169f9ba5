package sim

import (
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
