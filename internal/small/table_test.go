package small

import (
	"maps"
	"testing"
	"unsafe"

	"repro/internal/testutil"
)

// check compares t with the referee map entry by entry, through every
// reader the table has, and checks where the entries live: in the room
// up to four, in one map past a spill, and a slot no entry holds is
// zeroed, so the room keeps nothing reachable that the table dropped.
func check(t *testing.T, tab *Table[uint16, uint32], ref map[uint16]uint32) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, referee holds %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	seen := maps.Collect(tab.All)
	if !maps.Equal(seen, ref) || len(seen) != tab.Len() {
		t.Fatalf("All yields %v, referee holds %v", seen, ref)
	}
	if tab.m == nil && int(tab.n) != len(ref) || tab.m != nil && (tab.n != 0 || len(ref) <= shrink) {
		t.Fatalf("%d entries: %d in the room, spilled %v", len(ref), tab.n, tab.m != nil)
	}
	for i := int(tab.n); i < room; i++ {
		if tab.keys[i] != 0 || tab.vals[i] != 0 {
			t.Fatalf("room slot %d past the %d entries holds %d: %d", i, tab.n, tab.keys[i], tab.vals[i])
		}
	}
}

// FuzzTable drives a table and a plain map through the same puts, gets,
// deletes and ranges, read off the input two bytes an operation: the op
// and a key out of eight, so sequences cross the room↔map boundary both
// ways. A range may stop early; it must yield only entries the referee
// holds. After every operation the two must agree (check).
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 5, 1, 4, 1, 3, 1, 2, 0, 6, 0, 7, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 1, 2, 3, 3, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 3, 2, 1, 0, 1, 1, 1, 2, 0, 5, 0, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[uint16, uint32]
		ref := map[uint16]uint32{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := uint16(ops[i+1] % 8)
			v := uint32(i)<<8 | uint32(ops[i+1])
			switch ops[i] % 4 {
			case 0:
				tab.Put(k, v)
				ref[k] = v
			case 1:
				tab.Delete(k)
				delete(ref, k)
			case 2:
				got, ok := tab.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", i/2, k, got, ok, want, wok)
				}
			case 3:
				stop := int(ops[i+1] % 8)
				n := 0
				for k, v := range tab.All {
					if want, ok := ref[k]; !ok || v != want {
						t.Fatalf("op %d: All yielded %d: %d, referee holds %d, %v", i/2, k, v, want, ok)
					}
					if n++; n == stop {
						break
					}
				}
				if want := min(stop, len(ref)); stop > 0 && n != want {
					t.Fatalf("op %d: a range stopped at %d yielded %d, want %d", i/2, stop, n, want)
				}
			}
			check(t, &tab, ref)
		}
	})
}

// TestTableSpillsAtFive pins the boundary both ways: four entries live in
// the room, the fifth moves all five into one map, and deletes move them
// back once two are left.
func TestTableSpillsAtFive(t *testing.T) {
	var tab Table[uint16, uint32]
	for k := range uint16(room) {
		tab.Put(k, uint32(k))
	}
	if tab.m != nil || tab.n != room {
		t.Fatalf("four entries spilled: n=%d", tab.n)
	}
	tab.Put(room, room)
	if tab.m == nil || len(tab.m) != room+1 || tab.n != 0 {
		t.Fatalf("a fifth entry stayed in the room: n=%d", tab.n)
	}
	for k := range uint16(room + 1 - shrink - 1) {
		tab.Delete(k)
	}
	if tab.m == nil {
		t.Fatalf("a table of %d entries left its map", tab.Len())
	}
	tab.Delete(room)
	if tab.m != nil || tab.Len() != shrink {
		t.Fatalf("a table of %d entries kept its map", tab.Len())
	}
}

// TestTableSizes pins what a table costs inline, in the uses a client
// device has, and that reading a table allocates nothing.
func TestTableSizes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sizes and allocations are pinned without -race instrumentation")
	}
	if sz := unsafe.Sizeof(Table[uint32, *int]{}); sz != 64 {
		t.Fatalf("Table[uint32, *int] is %d bytes, want 64", sz)
	}
	var tab Table[uint32, *int]
	x := new(int)
	tab.Put(1, x)
	if n := testing.AllocsPerRun(100, func() {
		tab.Put(2, x)
		if v, ok := tab.Get(2); !ok || v != x {
			t.Fatal("lost the entry")
		}
		for range tab.All {
		}
		tab.Delete(2)
	}); n != 0 {
		t.Fatalf("a put, get, range and delete in the room allocate %v objects", n)
	}
}
