package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*Millisecond, "c", func() { got = append(got, 3) })
	s.Schedule(10*Millisecond, "a", func() { got = append(got, 1) })
	s.Schedule(20*Millisecond, "b", func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Second, "e", func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(Second, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Double-cancel must be a no-op.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelInterleaved(t *testing.T) {
	s := New(1)
	var got []string
	var e2 *Event
	s.Schedule(10, "a", func() {
		got = append(got, "a")
		s.Cancel(e2)
	})
	e2 = s.Schedule(20, "b", func() { got = append(got, "b") })
	s.Schedule(30, "c", func() { got = append(got, "c") })
	s.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("got %v, want [a c]", got)
	}
}

func TestSchedulingFromWithinEvent(t *testing.T) {
	s := New(1)
	var times []Time
	s.Schedule(10, "outer", func() {
		s.After(5*time.Nanosecond, "inner", func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("inner event at %v, want [15]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(100, "x", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(50, "past", func() {})
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, w := range []Time{10, 20, 30, 40} {
		w := w
		s.Schedule(w, "e", func() { fired = append(fired, w) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := New(1)
	s.RunFor(3 * time.Second)
	if s.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), "e", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop ignored)", count)
	}
	s.Run() // resume
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var vals []int64
		var rec func()
		rec = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 50 {
				s.After(time.Duration(s.Rand().Intn(100)+1)*time.Microsecond, "r", rec)
			}
		}
		s.After(time.Microsecond, "r", rec)
		s.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with identical seed diverge at %d: %d != %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTimerResetStop(t *testing.T) {
	s := New(1)
	count := 0
	tm := NewTimer(s, "t", func() { count++ })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(20 * time.Millisecond) // replaces, not adds
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if tm.Deadline() != 20*Millisecond {
		t.Fatalf("deadline = %v, want 20ms", tm.Deadline())
	}
	s.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
	tm.Reset(5 * time.Millisecond)
	tm.Stop()
	s.Run()
	if count != 1 {
		t.Fatalf("stopped timer fired, count = %d", count)
	}
	if tm.Deadline() != -1 {
		t.Fatalf("stopped timer has deadline %v", tm.Deadline())
	}
}

func TestTimerResetAt(t *testing.T) {
	s := New(1)
	var at Time = -1
	tm := NewTimer(s, "t", func() { at = s.Now() })
	tm.ResetAt(77 * Microsecond)
	s.Run()
	if at != 77*Microsecond {
		t.Fatalf("fired at %v, want 77µs", at)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(s, 100*time.Millisecond, "tick", func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	s.RunUntil(10 * Second)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, want := range []Time{100, 200, 300, 400, 500} {
		if ticks[i] != want*Millisecond {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want*Millisecond)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
	if Second.Add(500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("Add wrong")
	}
	if Second.String() != "1s" {
		t.Fatalf("String = %q", Second.String())
	}
	if Second.Duration() != time.Second {
		t.Fatal("Duration wrong")
	}
}

// Property: for any batch of events with arbitrary non-negative offsets,
// execution order is sorted by time, ties broken FIFO, and the final clock
// equals the max timestamp.
func TestQuickOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := New(7)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		var max Time
		for i, off := range offsets {
			w := Time(off)
			if w > max {
				max = w
			}
			i := i
			s.Schedule(w, "q", func() { fired = append(fired, rec{s.Now(), i}) })
		}
		s.Run()
		if s.Now() != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement to fire.
func TestQuickCancelProperty(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		s := New(3)
		events := make([]*Event, count)
		firedCount := 0
		for i := 0; i < count; i++ {
			events[i] = s.Schedule(Time(i+1), "q", func() { firedCount++ })
		}
		cancelled := 0
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Cancel(events[i])
				cancelled++
			}
		}
		s.Run()
		return firedCount == count-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// A firing timer keeps its heap slot while its callback runs, but to its
// owner it has fired: not armed, no deadline, nothing for Stop to cancel —
// armRTO and the pacer branch on exactly that — and a Reset inside the
// callback is the firing that counts.
func TestTimerArmedInsideOwnCallback(t *testing.T) {
	s := New(1)
	s.Schedule(50, "bystander", func() {})
	var fired []Time
	var tm *Timer
	tm = NewTimer(s, "t", func() {
		fired = append(fired, s.Now())
		if tm.Armed() || tm.Deadline() != -1 {
			t.Fatalf("inside its callback: Armed %v, Deadline %v", tm.Armed(), tm.Deadline())
		}
		tm.Stop() // a no-op: must not disturb the queue or a later Reset
		switch len(fired) {
		case 1:
			tm.Reset(30 * time.Nanosecond)
			if !tm.Armed() || tm.Deadline() != 40 {
				t.Fatalf("after Reset in the callback: Armed %v, Deadline %v", tm.Armed(), tm.Deadline())
			}
		case 2:
			tm.Reset(5 * time.Nanosecond)
			tm.Stop() // now there is a firing to cancel
		}
	})
	tm.Reset(10 * time.Nanosecond)
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 40 {
		t.Fatalf("fired at %v, want [10 40]", fired)
	}
	if tm.Armed() || s.Now() != 50 || s.Processed() != 3 {
		t.Fatalf("after the run: Armed %v, now %v, %d events", tm.Armed(), s.Now(), s.Processed())
	}

	// A Ticker re-arms inside its callback; Stop from there cancels the
	// next tick, and the period holds until then.
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(s, 7*time.Nanosecond, "tick", func() {
		if ticks = append(ticks, s.Now()); len(ticks) == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if len(ticks) != 3 || ticks[0] != 57 || ticks[1] != 64 || ticks[2] != 71 {
		t.Fatalf("ticks at %v, want [57 64 71]", ticks)
	}
}

// Passed compares a reserved key with the running event's. While no event
// runs — between runs, after RunUntil, inside a World's global event — the
// running key is above every key, so a reservation at the current instant
// has passed; inside an event the keys decide.
func TestRunningKeyIdleIsInfinite(t *testing.T) {
	s := New(1)
	if k := s.Reserve(); !s.Passed(0, k) || s.Passed(1, k) {
		t.Fatal("before the first run: a key at now must have passed, a later one not")
	}
	early, late := s.Reserve(), uint64(0)
	s.Schedule(10, "e", func() {
		late = s.Reserve()
		if !s.Passed(9, late) || !s.Passed(10, early) || s.Passed(10, late) || s.Passed(11, early) {
			t.Fatal("inside an event: only keys below the running one have passed")
		}
	})
	s.RunUntil(10)
	if !s.Passed(10, late) || s.Passed(11, early) {
		t.Fatal("after RunUntil(10): every key at 10 must have passed, none at 11")
	}

	w := NewWorld(1, 2)
	lo, hi := w.HostClock(0, "lo"), w.HostClock(1, "hi")
	w.Crossing("x", lo, hi, time.Millisecond)
	klo, khi := lo.Reserve(), hi.Reserve()
	var ranLo, ranHi, ranGlobal bool // one per shard: the two events run concurrently
	lo.Schedule(10, "lo", func() {
		if ranLo = true; lo.Passed(10, lo.Reserve()) || !lo.Passed(10, klo) {
			t.Error("inside lo's event: its earlier key has passed, a fresh one has not")
		}
	})
	hi.Schedule(10, "hi", func() {
		if ranHi = true; hi.Passed(10, hi.Reserve()) || !hi.Passed(10, khi) {
			t.Error("inside hi's event: its earlier key has passed, a fresh one has not")
		}
	})
	w.Walk(steps{{10, func() {
		if ranGlobal = true; !lo.Passed(10, lo.Reserve()) || !hi.Passed(10, hi.Reserve()) || lo.Passed(11, klo) {
			t.Error("inside a timeline entry: every key at now has passed on every shard, none later")
		}
	}}})
	w.RunUntil(10)
	if !ranLo || !ranHi || !ranGlobal || !hi.Passed(10, hi.Reserve()) {
		t.Fatal("a check did not run, or after the run a key at now has not passed")
	}
}

// TestEventCount checks the stamp the MPTCP layer's spare subflows carry:
// it holds still for the whole of one event, moves between two events on
// a loop, holds still in a World's timeline entries and between runs, and
// reading it reserves no key.
func TestEventCount(t *testing.T) {
	s := New(1)
	var inside []uint64
	s.Schedule(10, "a", func() {
		n := EventCount(s)
		s.Reserve()
		inside = append(inside, n, EventCount(s))
	})
	s.Schedule(10, "b", func() { inside = append(inside, EventCount(s)) })
	before := EventCount(s)
	seq := s.nextSeq
	EventCount(s)
	if s.nextSeq != seq {
		t.Fatal("EventCount reserved a key")
	}
	s.Run()
	if len(inside) != 3 || inside[0] != inside[1] || inside[2] <= inside[1] || inside[0] <= before {
		t.Fatalf("counts %v (before the run %d): want one value inside event a, a later one in b", inside, before)
	}
	if EventCount(s) != inside[2] {
		t.Fatal("count moved after the last event")
	}

	w := NewWorld(1, 2)
	lo, hi := w.HostClock(0, "lo"), w.HostClock(1, "hi")
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	var atGlobal [2]uint64
	lo.Schedule(5, "lo", func() {})
	w.Walk(steps{{10, func() { atGlobal[0] = EventCount(lo) }}, {10, func() { atGlobal[1] = EventCount(lo) }}})
	w.RunUntil(10)
	if atGlobal[0] != 1 || atGlobal[1] != 1 || EventCount(hi) != 0 {
		t.Fatalf("lo's count in two timeline entries %v, hi's %d: want 1, 1 and 0 (entries do not count, shards count their own)",
			atGlobal, EventCount(hi))
	}
}
