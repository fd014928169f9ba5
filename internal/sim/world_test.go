package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// pingPongTrace runs a two-entity ping-pong over a simulated cross-shard
// link and records the observable history: event times, per-entity random
// draws, timer firings, and a mid-run global intervention. Each entity
// appends only to its own log (shared mutable state between shards is
// exactly what the simulation model forbids); the logs are merged
// deterministically afterwards. The history must not depend on the shard
// count.
func pingPongTrace(t *testing.T, seed int64, shards int) []string {
	t.Helper()
	w := NewWorld(seed, shards)
	ca := w.HostClock(0, "a")
	cb := w.HostClock(1, "b")
	const delay = time.Millisecond
	w.Crossing("ab", ca, cb, delay)
	w.Crossing("ba", cb, ca, delay)
	if err := w.Finalize(); err != nil {
		t.Fatalf("Finalize(%d shards): %v", shards, err)
	}

	// Pre-populate the map so shard goroutines only read it; each entity
	// writes through its own slice pointer.
	logs := map[string]*[]string{"a": {}, "b": {}, "global": {}}
	record := func(c Clock, who, what string) {
		*logs[who] = append(*logs[who], fmt.Sprintf("%v %s %s r=%d", c.Now(), who, what, c.Rand().Intn(1000)))
	}

	dropped := false // written only at the global barrier, read by later windows
	var send func(from, to Clock, fromName, toName string, hop int)
	send = func(from, to Clock, fromName, toName string, hop int) {
		if hop > 20 || dropped {
			return
		}
		from.SendTo(to, from.Now().Add(delay), "pong", func(any) {
			record(to, toName, fmt.Sprintf("recv hop=%d", hop))
			send(to, from, toName, fromName, hop+1)
		}, nil)
	}

	// Two interleaved ping-pong chains plus a local ticker on each side.
	send(ca, cb, "a", "b", 0)
	send(cb, ca, "b", "a", 0)
	ta := NewTicker(ca, 3*time.Millisecond, "tick.a", func() { record(ca, "a", "tick") })
	tb := NewTicker(cb, 5*time.Millisecond, "tick.b", func() { record(cb, "b", "tick") })
	defer ta.Stop()
	defer tb.Stop()

	// A global intervention mid-run: cuts the chains after every event at
	// 8ms has executed, whatever the sharding.
	w.Walk(steps{{Time(8 * Millisecond), func() {
		dropped = true
		record(ca, "global", "cut")
	}}})

	w.RunFor(12 * time.Millisecond)
	w.RunFor(12 * time.Millisecond) // second leg: resuming mid-history must also be stable

	var names []string
	for k := range logs {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []string
	for _, k := range names {
		out = append(out, *logs[k]...)
	}
	out = append(out, fmt.Sprintf("end now=%v processed=%d", w.Now(), w.Processed()))
	return out
}

// steps is a test timeline: entry k runs fn at at.
type steps []struct {
	at Time
	fn func()
}

func (s steps) Len() int          { return len(s) }
func (s steps) At(k int) Time     { return s[k].at }
func (s steps) Name(k int) string { return fmt.Sprintf("step %d", k) }
func (s steps) Fire(k int)        { s[k].fn() }

func TestWorldShardCountInvariance(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		want := pingPongTrace(t, seed, 1)
		for _, n := range []int{2, 3, 8} {
			got := pingPongTrace(t, seed, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %d-shard history diverges from 1-shard\n 1: %v\n%2d: %v", seed, n, want, n, got)
			}
		}
	}
}

func TestWorldSingleShardMatchesBareSimulatorSemantics(t *testing.T) {
	w := NewWorld(7, 1)
	c := w.HostClock(0, "only")
	var order []int
	c.Schedule(Time(Millisecond), "a", func() { order = append(order, 1) })
	c.Schedule(Time(Millisecond), "b", func() { order = append(order, 2) })
	c.After(2*time.Millisecond, "c", func() { order = append(order, 3) })
	w.RunFor(5 * time.Millisecond)
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
	if w.Now() != Time(5*Millisecond) {
		t.Fatalf("Now = %v", w.Now())
	}
}

func TestWorldFinalizeRejectsUnpartitionable(t *testing.T) {
	w := NewWorld(1, 4)
	w.HostClock(0, "a")
	w.HostClock(4, "b") // folds onto shard 0 too
	if err := w.Finalize(); err == nil {
		t.Fatal("want partition error when all entities share one shard")
	}
}

func TestWorldFinalizeRejectsZeroDelayCrossing(t *testing.T) {
	w := NewWorld(1, 2)
	a := w.HostClock(0, "a")
	b := w.HostClock(1, "b")
	w.Crossing("wire", a, b, 0)
	if err := w.Finalize(); err == nil {
		t.Fatal("want error for zero-delay cross-shard link")
	}
}

func TestWorldGlobalEventBarrier(t *testing.T) {
	// A timeline entry at time g must observe every shard event with
	// when <= g, including ones at exactly g delivered from another shard's
	// entity. Each counter is owned by one entity; only the entry reads both.
	for _, n := range []int{1, 2, 4} {
		w := NewWorld(3, n)
		a := w.HostClock(0, "a")
		b := w.HostClock(1, "b")
		w.Crossing("ab", a, b, time.Millisecond)
		countA, countB := 0, 0
		a.Schedule(Time(2*Millisecond), "ea", func() { countA++ })
		b.Schedule(Time(2*Millisecond), "eb", func() { countB++ })
		a.SendTo(b, Time(2*Millisecond), "x", func(any) { countB++ }, nil)
		sawAtBarrier := -1
		w.Walk(steps{{Time(2 * Millisecond), func() { sawAtBarrier = countA + countB }}})
		w.RunFor(3 * time.Millisecond)
		if sawAtBarrier != 3 {
			t.Fatalf("shards=%d: timeline entry saw %d of 3 events at its own timestamp", n, sawAtBarrier)
		}
	}
}

// TestWalkRefusesThePast: a timeline entry before now panics and names
// itself, the first entry at the run after Walk before time moves and a
// later one at its turn, and so does a second timeline while the first has
// entries left.
func TestWalkRefusesThePast(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	w := NewWorld(1, 1)
	w.RunFor(time.Millisecond)
	w.Walk(steps{{0, nil}})
	if msg := panicOf(func() { w.RunFor(time.Millisecond) }); !strings.Contains(msg, `"step 0" at 0s before now 1ms`) || w.Now() != Time(Millisecond) {
		t.Errorf("walking a past entry: panic %q, now %v", msg, w.Now())
	}
	w = NewWorld(1, 1)
	w.Walk(steps{{2, func() {}}, {1, nil}})
	if msg := panicOf(func() { w.RunFor(time.Millisecond) }); !strings.Contains(msg, `"step 1" at 1ns before now 2ns`) {
		t.Errorf("an entry earlier than the one before it: panic %q", msg)
	}
	w = NewWorld(1, 1)
	w.Walk(steps{{5, nil}})
	if msg := panicOf(func() { w.Walk(steps{{6, nil}}) }); !strings.Contains(msg, "second timeline") {
		t.Errorf("a second timeline: panic %q", msg)
	}
}

func TestWorldRejectsClockCreationWhileRunning(t *testing.T) {
	w := NewWorld(1, 2)
	a := w.HostClock(0, "a")
	w.HostClock(1, "b")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when deriving a clock mid-run")
		}
	}()
	a.Schedule(Time(Millisecond), "bad", func() { a.Derive("nested") })
	w.RunFor(2 * time.Millisecond)
}

// TestEntityRandSeededOnFirstUse: a clock's stream is created by its first
// Rand call, from the run seed and the entity ordinal alone, so a clock
// that never draws costs nothing and one that draws late draws what it
// always drew — here 400 numbers each, past the lazy source's hand-over,
// on two shards drawing at once (under -race: the tables behind the
// closed form are shared and must be read-only).
func TestEntityRandSeededOnFirstUse(t *testing.T) {
	w := NewWorld(42, 2)
	a := w.HostClock(0, "a").(*entityClock)
	b := w.HostClock(1, "b").(*entityClock)
	if a.rng != nil || b.rng != nil {
		t.Fatal("stream created before the first draw")
	}
	var got [2][400]int64
	for i, c := range []*entityClock{b, a} {
		c.Schedule(Time(Millisecond), "draw", func() {
			for k := range got[i] {
				got[i][k] = c.Rand().Int63()
			}
		})
	}
	w.RunFor(2 * time.Millisecond)
	for i, c := range []*entityClock{b, a} {
		ref := rand.New(rand.NewSource(entitySeed(42, c.ent)))
		for k, g := range got[i] {
			if want := ref.Int63(); g != want {
				t.Fatalf("entity %d: draw %d is %d, want %d", c.ent, k+1, g, want)
			}
		}
	}
}
