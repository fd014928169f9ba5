// Package small holds Table, the lookup table for what holds a handful of
// keys on most instances and many on a few: an endpoint's subflows by
// 4-tuple, its connections by token, its address IDs; a policy stack's
// bindings by token. A client device keeps one to four entries in each,
// and a Go map for them costs a header and a group of eight slots; a
// server endpoint keeps thousands.
package small

// room is how many entries a Table holds inline. A fifth moves every entry
// into a map; a delete that leaves a spilled table with shrink entries
// moves them back. The gap between the two keeps a table that hovers at
// the boundary from building a map on every other insert.
const (
	room   = 4
	shrink = room / 2
)

// Table maps keys to values like a Go map. Up to four entries live in the
// table itself, found by a linear scan; beyond that every entry lives in
// one map, so a large table costs one map lookup, as a plain map does.
// The zero value is an empty table. A Table must not be copied once used,
// nor changed while its entries are being ranged over.
type Table[K comparable, V any] struct {
	keys [room]K
	vals [room]V
	m    map[K]V // every entry once spilled; nil until then
	n    uint8   // entries in the room; 0 once spilled
}

// Len reports the number of entries.
func (t *Table[K, V]) Len() int {
	if t.m != nil {
		return len(t.m)
	}
	return int(t.n)
}

// Get returns the value stored under k, and whether there is one.
func (t *Table[K, V]) Get(k K) (V, bool) {
	if t.m != nil {
		v, ok := t.m[k]
		return v, ok
	}
	for i := range t.n {
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Put stores v under k.
func (t *Table[K, V]) Put(k K, v V) {
	if t.m != nil {
		t.m[k] = v
		return
	}
	for i := range t.n {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
	if t.n < room {
		t.keys[t.n], t.vals[t.n] = k, v
		t.n++
		return
	}
	t.m = make(map[K]V, 2*room)
	for i := range room {
		t.m[t.keys[i]] = t.vals[i]
	}
	t.m[k] = v
	t.keys, t.vals, t.n = [room]K{}, [room]V{}, 0
}

// Delete removes k's entry, if there is one.
func (t *Table[K, V]) Delete(k K) {
	if t.m != nil {
		delete(t.m, k)
		if len(t.m) <= shrink {
			for mk, mv := range t.m {
				t.keys[t.n], t.vals[t.n] = mk, mv
				t.n++
			}
			t.m = nil
		}
		return
	}
	for i := range t.n {
		if t.keys[i] == k {
			last := t.n - 1
			t.keys[i], t.vals[i] = t.keys[last], t.vals[last]
			var zk K
			var zv V
			t.keys[last], t.vals[last] = zk, zv
			t.n = last
			return
		}
	}
}

// All yields every entry, in no particular order.
func (t *Table[K, V]) All(yield func(K, V) bool) {
	if t.m != nil {
		for k, v := range t.m {
			if !yield(k, v) {
				return
			}
		}
		return
	}
	for i := range t.n {
		if !yield(t.keys[i], t.vals[i]) {
			return
		}
	}
}
