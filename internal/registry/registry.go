// Package registry is the one name → factory table behind everything an
// experiment picks by name: scenarios, packet schedulers and subflow
// controllers each keep one Table, filled by init-time registrations.
package registry

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Info describes a registered entry for listings.
type Info struct {
	Name string
	Desc string
}

type entry[F any] struct {
	f    F
	desc string
}

// Table maps names to factories of type F. Registration happens at init
// time; lookups may run from any goroutine.
type Table[F any] struct {
	pkg, noun string
	mu        sync.RWMutex
	entries   map[string]entry[F]
}

// New returns an empty table whose errors and panics read "<pkg>: ...
// <noun> ...", e.g. New[Factory]("scenario", "scenario").
func New[F any](pkg, noun string) *Table[F] {
	return &Table[F]{pkg: pkg, noun: noun, entries: make(map[string]entry[F])}
}

// Register makes f available under name, with a one-line description for
// listings. It panics on an empty name, a nil factory or a duplicate:
// all three are programming errors, caught at init time.
func (t *Table[F]) Register(name, desc string, f F) {
	if name == "" || reflect.ValueOf(&f).Elem().IsZero() {
		panic(fmt.Sprintf("%s: %s registered with an empty name or a nil factory", t.pkg, t.noun))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.entries[name]; dup {
		panic(fmt.Sprintf("%s: %s %q registered twice", t.pkg, t.noun, name))
	}
	t.entries[name] = entry[F]{f, desc}
}

// Lookup resolves a name. An unknown name's error lists what is
// registered, so a typo names its own fix.
func (t *Table[F]) Lookup(name string) (F, error) {
	f, ok := t.Get(name)
	if !ok {
		return f, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			t.pkg, t.noun, name, strings.Join(t.Names(), ", "))
	}
	return f, nil
}

// Get resolves a name and reports whether it is registered: Lookup
// without the error, for a caller that tries more than one table.
func (t *Table[F]) Get(name string) (F, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[name]
	return e.f, ok
}

// Names lists every registered name, sorted.
func (t *Table[F]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Sorted(maps.Keys(t.entries))
}

// Infos lists every registered entry with its description, sorted by name.
func (t *Table[F]) Infos() []Info {
	names := t.Names()
	out := make([]Info, len(names))
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, n := range names {
		out[i] = Info{n, t.entries[n].desc}
	}
	return out
}
