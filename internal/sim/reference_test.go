package sim

// The container/heap event queue the simulator ran on before the concrete
// 4-ary heap, kept as the referee: TestEventHeapMatchesContainerHeap
// drives both with one random push/pop/fix/remove stream and requires the
// same pop order.

import (
	"container/heap"
	"math/rand"
	"testing"
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
	h[i].idx = i
	h[j].idx = j
}
func (h *refEventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
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
		t.Fatalf("event %q left the heap but was not queued", e.name)
	}
	for step := 0; step < 30000; step++ {
		switch op := rng.Intn(10); {
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
			got.fix(p[0].idx)
			heap.Fix(&ref, p[1].idx)
		default: // remove
			p := live[rng.Intn(len(live))]
			got.remove(p[0].idx)
			heap.Remove(&ref, p[1].idx)
			if p[0].idx != -1 {
				t.Fatalf("step %d: removed event has idx %d, want -1", step, p[0].idx)
			}
			unlive(p[0])
		}
		if len(got) != len(ref) {
			t.Fatalf("step %d: %d queued, container/heap has %d", step, len(got), len(ref))
		}
		for i, e := range got {
			if e.idx != i {
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
