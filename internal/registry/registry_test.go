package registry

import (
	"slices"
	"strings"
	"testing"
)

type factory func() int

func newTable() *Table[factory] {
	t := New[factory]("pkg", "thing")
	for _, n := range []string{"charlie", "alpha", "delta", "bravo"} {
		t.Register(n, "the "+n+" thing", func() int { return len(n) })
	}
	return t
}

func TestTable(t *testing.T) {
	tab := newTable()
	sorted := []string{"alpha", "bravo", "charlie", "delta"}

	if got := tab.Names(); !slices.Equal(got, sorted) {
		t.Errorf("Names() = %v, want %v", got, sorted)
	}
	infos := tab.Infos()
	if len(infos) != len(sorted) {
		t.Fatalf("Infos() = %v", infos)
	}
	for i, in := range infos {
		if in.Name != sorted[i] || in.Desc != "the "+sorted[i]+" thing" {
			t.Errorf("Infos()[%d] = %+v, want %s with its description", i, in, sorted[i])
		}
	}

	f, err := tab.Lookup("charlie")
	if err != nil || f == nil || f() != len("charlie") {
		t.Fatalf("Lookup(charlie) = (%v, %v)", f, err)
	}
	f, err = tab.Lookup("echo")
	const want = `pkg: unknown thing "echo" (registered: alpha, bravo, charlie, delta)`
	if f != nil || err == nil || err.Error() != want {
		t.Errorf("Lookup(echo) = (%v, %v), want (nil, %s)", f, err, want)
	}

	for _, tc := range []struct {
		what, name, want string
		f                factory
	}{
		{"duplicate", "bravo", `pkg: thing "bravo" registered twice`, func() int { return 0 }},
		{"empty name", "", "pkg: thing registered with an empty name or a nil factory", func() int { return 0 }},
		{"nil factory", "echo", "pkg: thing registered with an empty name or a nil factory", nil},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), tc.want) {
					t.Errorf("%s: recovered %v, want a panic with %q", tc.what, r, tc.want)
				}
			}()
			tab.Register(tc.name, "", tc.f)
		}()
	}
	if got := tab.Names(); !slices.Equal(got, sorted) {
		t.Errorf("a refused registration changed the table: %v", got)
	}
}

// Lookup runs once per Dial (the controller table) and once per endpoint
// (the scheduler table), so resolving a known name must not allocate.
func TestLookupAllocatesNothing(t *testing.T) {
	tab := newTable()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tab.Lookup("delta"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Lookup of a known name: %v allocations, want 0", n)
	}
}
