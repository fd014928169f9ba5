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

// TestPutBeyondMaxDrops pins the cap: a full stripe drops what it is
// given, and the next Gets past the kept values mint afresh. One P makes
// one stripe, so every call lands on it.
func TestPutBeyondMaxDrops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

// TestGetTakesFromOtherStripes checks that a Get whose own stripe is
// empty reuses a value held by any other stripe before it mints one, so a
// run on one P reuses what a run on another P returned.
func TestGetTakesFromOtherStripes(t *testing.T) {
	l := newList(4)
	n := len(l.all())
	for i := 0; i < n; i++ {
		v := new([64]byte)
		l.stripes[i].free = append(l.stripes[i].free, v)
		news := l.Stats().News
		if got := l.Get(); got != v {
			t.Fatalf("stripe %d of %d: Get did not take the one free value", i, n)
		}
		if st := l.Stats(); st.News != news {
			t.Fatalf("stripe %d of %d: Get minted with a value free: %+v", i, n, st)
		}
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
