package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// CheckNames checks how the constants of one kind print in reports and
// CSVs. names maps the name of every constant of type typ that the
// package in the working directory declares to what the constant formats
// to; each must be non-empty, distinct and not the formatter's fallback
// (anything starting with fallback). A constant the package declares
// without a row fails, so a kind added without a name does too.
func CheckNames(t testing.TB, typ, fallback string, names map[string]string) {
	t.Helper()
	declared := constNames(t, typ)
	if rows := slices.Sorted(maps.Keys(names)); !slices.Equal(rows, declared) {
		t.Fatalf("%s: rows for %v, but the package declares %v", typ, rows, declared)
	}
	seen := map[string]string{}
	for c, s := range names {
		if s == "" || strings.HasPrefix(s, fallback) {
			t.Errorf("%s %s formats as %q", typ, c, s)
		}
		if other, dup := seen[s]; dup {
			t.Errorf("%s %s and %s both format as %q", typ, c, other, s)
		}
		seen[s] = c
	}
}

// constNames lists, sorted, the constants of type typ declared by the
// non-test Go files of the working directory, counting an iota block's
// implicit repetitions.
func constNames(t testing.TB, typ string) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			cur := "" // the type a spec without type or value repeats
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil || len(vs.Values) > 0 {
					id, _ := vs.Type.(*ast.Ident)
					cur = ""
					if id != nil {
						cur = id.Name
					}
				}
				if cur != typ {
					continue
				}
				for _, n := range vs.Names {
					if n.Name != "_" {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}
