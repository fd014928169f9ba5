package freelist

import (
	"runtime"
	"sync"
	"testing"
)

func newList(max int) *List[*[64]byte] {
	return &List[*[64]byte]{New: func() *[64]byte { return new([64]byte) }, Max: max}
}

// TestSurvivesGC is the reason the package exists: values Put before two
// collections are still there after them. A sync.Pool-backed body fails
// it, since the runtime empties a sync.Pool at every second GC.
func TestSurvivesGC(t *testing.T) {
	const n = 1000
	l := newList(n)
	held := make([]*[64]byte, n)
	for i := range held {
		held[i] = l.Get()
	}
	for _, v := range held {
		l.Put(v)
	}
	clear(held)
	news := l.Stats().News
	runtime.GC()
	runtime.GC()
	for i := range held {
		held[i] = l.Get()
	}
	if st := l.Stats(); st.News != news {
		t.Fatalf("News moved %d → %d across two GCs: the list dropped what it held", news, st.News)
	}
}

// TestPutBeyondMaxDrops pins the store's cap: a full list drops what it
// is given, and the next Gets past the kept values mint afresh.
func TestPutBeyondMaxDrops(t *testing.T) {
	l := newList(2)
	a, b, c := l.Get(), l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	l.Put(c) // dropped: the list holds Max already
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the most recently kept value")
	}
	if got := l.Get(); got != a {
		t.Fatal("Get did not return the first kept value")
	}
	news := l.Stats().News
	if got := l.Get(); got == c {
		t.Fatal("the value Put beyond Max was kept")
	}
	if st := l.Stats(); st.News != news+1 {
		t.Fatalf("empty list did not mint: %+v", st)
	}
}

// TestCountersBalance checks Gets == Puts + outstanding at every step of
// a mixed sequence, and that News counts only Gets on an empty list.
func TestCountersBalance(t *testing.T) {
	l := newList(4)
	var out []*[64]byte
	for step := 0; step < 100; step++ {
		if step%3 == 2 && len(out) > 0 {
			l.Put(out[len(out)-1])
			out = out[:len(out)-1]
		} else {
			out = append(out, l.Get())
		}
		st := l.Stats()
		if st.Gets != st.Puts+uint64(len(out)) {
			t.Fatalf("step %d: Gets %d != Puts %d + outstanding %d", step, st.Gets, st.Puts, len(out))
		}
		if st.News > st.Gets {
			t.Fatalf("step %d: News %d > Gets %d", step, st.News, st.Gets)
		}
	}
}

// TestLocalTakesFromStore checks that a loop's list that runs empty takes
// what the store holds before it mints, and takes it whole: the loop then
// pops in the store's order without going back to it.
func TestLocalTakesFromStore(t *testing.T) {
	l := newList(8)
	held := []*[64]byte{l.Get(), l.Get(), l.Get()}
	for _, v := range held {
		l.Put(v)
	}
	var lp Loop
	x := l.On(&lp)
	if x != l.On(&lp) {
		t.Fatal("On attached a second list to one loop")
	}
	for i := len(held) - 1; i >= 0; i-- {
		if got := x.Get(); got != held[i] {
			t.Fatalf("Get %d: not the store's value in its order", len(held)-i)
		}
	}
	if st := x.Stats(); st.Gets != 3 || st.News != 0 {
		t.Fatalf("loop list minted with values in the store: %+v", st)
	}
	if len(l.free) != 0 {
		t.Fatalf("store kept %d values after the loop took them", len(l.free))
	}
	x.Get()
	if st := x.Stats(); st.News != 1 {
		t.Fatalf("empty loop list and store did not mint: %+v", st)
	}
}

// TestSplitLoopsShareTheStore checks the take rule of a run's several
// shards: a Split loop that runs empty takes half of the store's values,
// so a second Split loop that runs empty finds the rest and mints
// nothing, while a loop alone takes the store whole.
func TestSplitLoopsShareTheStore(t *testing.T) {
	l := newList(64)
	var held []*[64]byte
	for i := 0; i < 8; i++ {
		held = append(held, l.Get())
	}
	for _, v := range held {
		l.Put(v)
	}
	a, b := &Loop{Split: true}, &Loop{Split: true}
	xa, xb := l.On(a), l.On(b)
	xa.Get()
	if len(l.free) != 4 || len(xa.free) != 3 {
		t.Fatalf("a Split loop left %d in the store and kept %d, want 4 and 3", len(l.free), len(xa.free))
	}
	for i := 0; i < 4; i++ {
		xb.Get()
	}
	if st := xb.Stats(); st.News != 0 {
		t.Fatalf("the second Split loop minted %d with 4 values in the store", st.News)
	}
	a.Flush()
	b.Flush() // the store holds the 3 values of 8 not handed out
	var lone Loop
	x := l.On(&lone)
	x.Get()
	if len(l.free) != 0 || len(x.free) != 2 {
		t.Fatalf("a lone loop left %d in the store and kept %d, want 0 and 2", len(l.free), len(x.free))
	}
}

// TestFlushReturnsEverything checks the end-of-run hand-back: every value
// a loop's list holds lands in the store, in one array when the store was
// empty, and the store's counters take in the loop's traffic.
func TestFlushReturnsEverything(t *testing.T) {
	l := newList(64)
	var lp Loop
	x := l.On(&lp)
	var held []*[64]byte
	for i := 0; i < 10; i++ {
		held = append(held, x.Get())
	}
	for _, v := range held {
		x.Put(v)
	}
	lp.Flush()
	if len(x.free) != 0 || x.free != nil {
		t.Fatalf("loop list kept %d values (array %v) after Flush", len(x.free), x.free != nil)
	}
	if len(l.free) != len(held) {
		t.Fatalf("store holds %d values after Flush, want %d", len(l.free), len(held))
	}
	if st := l.Stats(); st != (Stats{Gets: 10, Puts: 10, News: 10}) {
		t.Fatalf("store counters after Flush: %+v", st)
	}
	lp.Flush() // a second flush hands over nothing twice
	if st := l.Stats(); st != (Stats{Gets: 10, Puts: 10, News: 10}) {
		t.Fatalf("store counters after a second Flush: %+v", st)
	}
}

// TestSecondLoopAfterFlushMintsNothing checks that a run on a new loop,
// after the first loop's run was flushed, reuses every value that run
// returned.
func TestSecondLoopAfterFlushMintsNothing(t *testing.T) {
	l := newList(64)
	run := func(lp *Loop) Stats {
		x := l.On(lp)
		var held []*[64]byte
		for i := 0; i < 20; i++ {
			held = append(held, x.Get())
			if i%3 == 2 { // interleave puts, as a run does
				x.Put(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		for _, v := range held {
			x.Put(v)
		}
		lp.Flush()
		return x.Stats()
	}
	first := run(new(Loop))
	if first.News == 0 {
		t.Fatal("first run minted nothing from an empty store")
	}
	if second := run(new(Loop)); second.News != 0 || second.Gets != first.Gets {
		t.Fatalf("second loop after a flush: %+v, first %+v", second, first)
	}
}

// TestLocalMaxDrops checks the cap on the loop side: a loop's list holds at
// most Max, a full one hands its values to the store, and the store keeps
// at most Max, dropping the rest for the GC.
func TestLocalMaxDrops(t *testing.T) {
	const cap = 4
	l := newList(cap)
	var lp Loop
	x := l.On(&lp)
	for i := 0; i < 3*cap; i++ {
		x.Put(new([64]byte))
		if len(x.free) > cap {
			t.Fatalf("loop list holds %d values, over Max %d", len(x.free), cap)
		}
	}
	lp.Flush()
	if len(l.free) != cap {
		t.Fatalf("store holds %d values after %d puts, want Max %d", len(l.free), 3*cap, cap)
	}
	if st := l.Stats(); st.Puts != 3*cap {
		t.Fatalf("a dropped put was not counted: %+v", st)
	}
}

// TestConcurrent drives one list from several goroutines; under -race it
// checks the list is the only synchronisation the pools need.
func TestConcurrent(t *testing.T) {
	const workers, rounds = 4, 2000
	l := newList(64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := l.Get()
				v[0] = byte(w) // a value is owned by exactly one goroutine
				l.Put(v)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Gets != workers*rounds || st.Puts != st.Gets {
		t.Fatalf("counters lost updates: %+v", st)
	}
	// Every minted value came back: draining News values mints nothing.
	for i := uint64(0); i < st.News; i++ {
		l.Get()
	}
	if got := l.Stats().News; got != st.News {
		t.Fatalf("lost values: draining %d minted %d more", st.News, got-st.News)
	}
}

// BenchmarkGetPut prices one Get/Put pair on the store (a mutex) and on a
// loop's list (a slice pop and push).
func BenchmarkGetPut(b *testing.B) {
	l := newList(64)
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.Put(l.Get())
		}
	})
	b.Run("loop", func(b *testing.B) {
		var lp Loop
		x := l.On(&lp)
		for i := 0; i < b.N; i++ {
			x.Put(x.Get())
		}
	})
}
